package kdtree

import (
	"math"
	"testing"

	"fairindex/internal/geo"
)

func TestQuadtreeBasics(t *testing.T) {
	grid := geo.MustGrid(16, 16)
	cells, dev := clusteredFixture(grid, 400, 40)
	qt, err := BuildFairQuadtree(grid, cells, dev, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Fairness-driven splits may produce degenerate quadrants, so the
	// leaf count is bounded by 4^2 but can fall short of it.
	if got := qt.NumLeaves(); got < 4 || got > 16 {
		t.Errorf("leaves = %d, want in [4, 16]", got)
	}
	if _, err := qt.Partition(); err != nil {
		t.Errorf("quadtree leaves do not tile: %v", err)
	}
}

func TestQuadtreeHeightZero(t *testing.T) {
	grid := geo.MustGrid(4, 4)
	qt, err := BuildFairQuadtree(grid, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if qt.NumLeaves() != 1 {
		t.Errorf("leaves = %d, want 1", qt.NumLeaves())
	}
}

func TestQuadtreeDegenerateGeometry(t *testing.T) {
	// Single-row grid: quadrants degenerate to a 2-way split; deep
	// heights terminate at single cells.
	grid := geo.MustGrid(1, 8)
	qt, err := BuildFairQuadtree(grid, nil, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := qt.NumLeaves(); got != 8 {
		t.Errorf("leaves = %d, want 8", got)
	}
	if _, err := qt.Partition(); err != nil {
		t.Errorf("degenerate quadtree does not tile: %v", err)
	}
	// 1x1 grid is a single leaf regardless of height.
	qt, err = BuildFairQuadtree(geo.MustGrid(1, 1), nil, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if qt.NumLeaves() != 1 {
		t.Errorf("1x1 leaves = %d, want 1", qt.NumLeaves())
	}
}

func TestQuadtreeValidation(t *testing.T) {
	grid := geo.MustGrid(4, 4)
	if _, err := BuildFairQuadtree(geo.Grid{}, nil, nil, 1); err == nil {
		t.Error("expected bad grid error")
	}
	if _, err := BuildFairQuadtree(grid, nil, nil, -1); err == nil {
		t.Error("expected height error")
	}
	if _, err := BuildFairQuadtree(grid, []geo.Cell{{Row: 0, Col: 0}}, nil, 1); err == nil {
		t.Error("expected deviations length error")
	}
}

func TestQuadtreeReducesDeviationSpread(t *testing.T) {
	// The fair quadtree should spread deviation mass more evenly than
	// a blind midpoint quadtree at the same height. We compare against
	// the uniform-grid partition of matching granularity instead
	// (2 KD levels ≈ 1 quad level).
	grid := geo.MustGrid(32, 32)
	cells, dev := clusteredFixture(grid, 1000, 41)
	qt, err := BuildFairQuadtree(grid, cells, dev, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := qt.Partition()
	if err != nil {
		t.Fatal(err)
	}
	groups, err := p.AssignCells(cells)
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]float64, p.NumRegions())
	for i, g := range groups {
		sums[g] += dev[i]
	}
	var qtMass float64
	for _, s := range sums {
		qtMass += abs(s)
	}
	// Equivalent KD fair tree at height 6 (2^6 = 4^3 regions).
	fair, err := BuildFair(grid, cells, dev, Config{Height: 6})
	if err != nil {
		t.Fatal(err)
	}
	fairMass := leafDeviationENCE(t, fair, cells, dev) * float64(len(dev))
	// The quadtree is a coarser optimizer; allow 3x slack but demand
	// the same order of magnitude.
	if qtMass > fairMass*3+1e-9 {
		t.Errorf("quadtree deviation mass %v far above fair KD tree %v", qtMass, fairMass)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// referenceBestQuadSplit is the pre-inlining split scan, kept here
// verbatim (candidate slices and all) to pin the allocation-free scan
// in bestQuadSplit to the exact same choices, epsilon tie-breaks
// included.
func referenceBestQuadSplit(sums *CellSums, rect geo.CellRect) (kr, kc int) {
	candidateOffsets := func(n int) []int {
		if n <= 1 {
			return []int{0}
		}
		out := make([]int, 0, n-1)
		for k := 1; k < n; k++ {
			out = append(out, k)
		}
		return out
	}
	rowCands := candidateOffsets(rect.Rows())
	colCands := candidateOffsets(rect.Cols())
	bestScore := math.Inf(1)
	bestDist := math.Inf(1)
	for _, r := range rowCands {
		for _, c := range colCands {
			if r == 0 && c == 0 {
				continue
			}
			var lo, hi = math.Inf(1), math.Inf(-1)
			for _, q := range quadrants(rect, r, c) {
				if q.Empty() {
					continue
				}
				d := math.Abs(sums.ValueRect(q))
				if d < lo {
					lo = d
				}
				if d > hi {
					hi = d
				}
			}
			score := hi - lo
			dist := math.Abs(float64(r)-float64(rect.Rows())/2) +
				math.Abs(float64(c)-float64(rect.Cols())/2)
			if score < bestScore-1e-15 || (score <= bestScore+1e-15 && dist < bestDist-1e-12) {
				bestScore, bestDist = score, dist
				kr, kc = r, c
			}
		}
	}
	return kr, kc
}

func TestBestQuadSplitMatchesReference(t *testing.T) {
	grid := geo.MustGrid(12, 12)
	cells, dev := clusteredFixture(grid, 500, 7)
	sums, err := NewCellSums(grid, cells, dev)
	if err != nil {
		t.Fatal(err)
	}
	// Every sub-rectangle of the grid, degenerate axes included.
	for r0 := 0; r0 < grid.U; r0++ {
		for r1 := r0 + 1; r1 <= grid.U; r1++ {
			for c0 := 0; c0 < grid.V; c0++ {
				for c1 := c0 + 1; c1 <= grid.V; c1++ {
					rect := geo.CellRect{Row0: r0, Col0: c0, Row1: r1, Col1: c1}
					gr, gc := bestQuadSplit(sums, rect)
					wr, wc := referenceBestQuadSplit(sums, rect)
					if gr != wr || gc != wc {
						t.Fatalf("rect %+v: split (%d,%d), reference picks (%d,%d)", rect, gr, gc, wr, wc)
					}
				}
			}
		}
	}
}

func TestBestQuadSplitAllocationFree(t *testing.T) {
	grid := geo.MustGrid(16, 16)
	cells, dev := clusteredFixture(grid, 400, 11)
	sums, err := NewCellSums(grid, cells, dev)
	if err != nil {
		t.Fatal(err)
	}
	rect := grid.Bounds()
	if allocs := testing.AllocsPerRun(50, func() { bestQuadSplit(sums, rect) }); allocs != 0 {
		t.Errorf("bestQuadSplit allocates %.1f objects per call, want 0", allocs)
	}
}
