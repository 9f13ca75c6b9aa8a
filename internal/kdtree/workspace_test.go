package kdtree

import (
	"math/rand"
	"testing"

	"fairindex/internal/geo"
)

// sameTree fails unless a and b have identical structure, rects and
// split choices — the bit-level guarantee the workspace pool must
// uphold.
func sameTree(t *testing.T, a, b *Node, path string) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: nil mismatch", path)
	}
	if a == nil {
		return
	}
	if a.Rect != b.Rect || a.Depth != b.Depth || a.Axis != b.Axis || a.SplitK != b.SplitK {
		t.Fatalf("%s: node mismatch: %+v vs %+v", path, a, b)
	}
	sameTree(t, a.Left, b.Left, path+"L")
	sameTree(t, a.Right, b.Right, path+"R")
}

func randomWorkload(rng *rand.Rand, grid geo.Grid, n int) ([]geo.Cell, []float64) {
	cells := make([]geo.Cell, n)
	dev := make([]float64, n)
	for i := range cells {
		cells[i] = geo.Cell{Row: rng.Intn(grid.U), Col: rng.Intn(grid.V)}
		dev[i] = rng.NormFloat64()
	}
	return cells, dev
}

// Back-to-back builds must be unaffected by workspace recycling: the
// pool hands back dirty tables and reset must fully re-initialize
// them.
func TestPooledWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	grid := geo.MustGrid(24, 24)
	cellsA, devA := randomWorkload(rng, grid, 1500)
	cellsB, devB := randomWorkload(rng, grid, 900)

	first, err := BuildFair(grid, cellsA, devA, Config{Height: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Interleave an unrelated build to dirty the pooled workspace.
	if _, err := BuildFair(grid, cellsB, devB, Config{Height: 5}); err != nil {
		t.Fatal(err)
	}
	again, err := BuildFair(grid, cellsA, devA, Config{Height: 5})
	if err != nil {
		t.Fatal(err)
	}
	sameTree(t, first.Root, again.Root, "reuse:")
}
