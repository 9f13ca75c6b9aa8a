package kdtree

import (
	"math/rand"
	"testing"

	"fairindex/internal/geo"
	"fairindex/internal/partition"
)

// sameTree fails unless a and b have identical structure, rects and
// split choices — the bit-level guarantee the parallel recursion and
// the workspace pool must uphold.
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

// The parallel fair build must produce the exact tree the sequential
// build does, for every objective.
func TestBuildFairParallelIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	grid := geo.MustGrid(40, 36)
	cells, dev := randomWorkload(rng, grid, 4000)
	for _, obj := range []Objective{ObjectiveEq9, ObjectiveLiteralEq13, ObjectiveComposite} {
		lambda := 0.0
		if obj == ObjectiveComposite {
			lambda = 0.4
		}
		seq, err := BuildFair(grid, cells, dev, Config{Height: 7, Objective: obj, Lambda: lambda})
		if err != nil {
			t.Fatal(err)
		}
		par, err := BuildFair(grid, cells, dev, Config{Height: 7, Objective: obj, Lambda: lambda, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		sameTree(t, seq.Root, par.Root, obj.String()+":")
	}
}

func TestBuildMedianParallelIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	grid := geo.MustGrid(33, 47)
	cells, _ := randomWorkload(rng, grid, 3000)
	seq, err := BuildMedian(grid, cells, 6)
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildMedianWorkers(grid, cells, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	sameTree(t, seq.Root, par.Root, "median:")
}

// The iterative builder must stay bit-identical under both the pooled
// workspace reuse and the per-level parallel split scan. The retrain
// callback derives deviations deterministically from the partition so
// both runs see identical inputs at every level.
func TestBuildIterativeParallelIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	grid := geo.MustGrid(32, 32)
	cells, base := randomWorkload(rng, grid, 2500)
	retrain := func(p *partition.Partition) ([]float64, error) {
		regionOf, err := p.AssignCells(cells)
		if err != nil {
			return nil, err
		}
		dev := make([]float64, len(cells))
		for i := range dev {
			dev[i] = base[i] * float64(1+regionOf[i]%5) / 3
		}
		return dev, nil
	}
	seq, err := BuildIterative(grid, cells, Config{Height: 6}, retrain)
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildIterative(grid, cells, Config{Height: 6, Workers: 8}, retrain)
	if err != nil {
		t.Fatal(err)
	}
	sameTree(t, seq.Root, par.Root, "iterative:")
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

func TestConfigRejectsNegativeWorkers(t *testing.T) {
	grid := geo.MustGrid(8, 8)
	if _, err := BuildFair(grid, nil, nil, Config{Height: 2, Workers: -1}); err == nil {
		t.Fatal("expected error for negative workers")
	}
}

// sameQuadTree fails unless a and b have identical structure, rects
// and joint split choices.
func sameQuadTree(t *testing.T, a, b *QuadNode, path string) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: nil mismatch", path)
	}
	if a == nil {
		return
	}
	if a.Rect != b.Rect || a.Depth != b.Depth || a.SplitRow != b.SplitRow || a.SplitCol != b.SplitCol {
		t.Fatalf("%s: node mismatch: %+v vs %+v", path, a, b)
	}
	if len(a.Children) != len(b.Children) {
		t.Fatalf("%s: %d children vs %d", path, len(a.Children), len(b.Children))
	}
	for i := range a.Children {
		sameQuadTree(t, a.Children[i], b.Children[i], path+string(rune('0'+i)))
	}
}

// The parallel quadtree build must produce the exact tree — and hence
// the exact depth-first leaf ids — the sequential build does, for any
// worker count.
func TestBuildFairQuadtreeParallelIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	grid := geo.MustGrid(41, 35)
	cells, dev := randomWorkload(rng, grid, 4000)
	seq, err := BuildFairQuadtree(grid, cells, dev, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 64} {
		par, err := BuildFairQuadtreeWorkers(grid, cells, dev, 4, workers)
		if err != nil {
			t.Fatal(err)
		}
		sameQuadTree(t, seq.Root, par.Root, "quad:")
		seqLeaves, parLeaves := seq.Leaves(), par.Leaves()
		if len(seqLeaves) != len(parLeaves) {
			t.Fatalf("workers=%d: %d leaves vs %d", workers, len(parLeaves), len(seqLeaves))
		}
	}
	if _, err := BuildFairQuadtreeWorkers(grid, cells, dev, 4, -1); err == nil {
		t.Error("negative workers accepted")
	}
}
