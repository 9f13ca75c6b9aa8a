package kdtree

import (
	"fmt"
	"math"

	"fairindex/internal/geo"
	"fairindex/internal/partition"
)

// QuadNode is one node of a fair quadtree. Internal nodes split their
// rect at (SplitRow, SplitCol) into up to four quadrants; children
// that would be empty are omitted, so every remaining child covers at
// least one cell.
type QuadNode struct {
	Rect     geo.CellRect
	Depth    int
	SplitRow int // cells from Rect.Row0; 0 for leaves
	SplitCol int // cells from Rect.Col0; 0 for leaves
	Children []*QuadNode
}

// IsLeaf reports whether the node has no children.
func (n *QuadNode) IsLeaf() bool { return len(n.Children) == 0 }

// QuadTree is the paper's future-work alternative index (§6 mentions
// domain-covering structures beyond KD-trees): a region quadtree
// whose joint (row, col) split point minimizes the spread of
// deviation magnitude across the four quadrants — the 4-way analogue
// of Eq. 9.
type QuadTree struct {
	Grid   geo.Grid
	Root   *QuadNode
	Height int
}

// BuildFairQuadtree constructs a fair quadtree of the given height
// (up to 4^height leaves). deviations follow the BuildFair
// convention.
func BuildFairQuadtree(grid geo.Grid, cells []geo.Cell, deviations []float64, height int) (*QuadTree, error) {
	if err := validateBuild(grid, cells, height); err != nil {
		return nil, err
	}
	if len(deviations) != len(cells) {
		return nil, fmt.Errorf("%w: %d deviations for %d records", ErrBadInput, len(deviations), len(cells))
	}
	sums, err := NewCellSums(grid, cells, deviations)
	if err != nil {
		return nil, err
	}
	g := &quadGrower{sums: sums, height: height}
	t := &QuadTree{Grid: grid, Height: height}
	t.Root = g.grow(grid.Bounds(), 0)
	return t, nil
}

// quadGrower carries the shared build state.
type quadGrower struct {
	sums   *CellSums
	height int
}

// grow recursively splits rect at the fairest (row, col) point; an
// empty rect (a quadrant the split left empty) has no node. Children
// grow depth-first in quadrant order, which is the leaf order the
// region ids follow.
func (g *quadGrower) grow(rect geo.CellRect, depth int) *QuadNode {
	if rect.Empty() {
		return nil
	}
	n := &QuadNode{Rect: rect, Depth: depth}
	if depth >= g.height || (rect.Rows() <= 1 && rect.Cols() <= 1) {
		return n
	}
	kr, kc := bestQuadSplit(g.sums, rect)
	n.SplitRow, n.SplitCol = kr, kc
	for _, q := range quadrants(rect, kr, kc) {
		if k := g.grow(q, depth+1); k != nil {
			n.Children = append(n.Children, k)
		}
	}
	if len(n.Children) == 1 {
		// Degenerate split (single surviving quadrant equals rect):
		// keep the node a leaf to guarantee termination.
		n.Children = nil
		n.SplitRow, n.SplitCol = 0, 0
	}
	return n
}

// quadrants returns the four half-open quadrants of rect around the
// split point (kr rows, kc cols from the rect origin).
func quadrants(rect geo.CellRect, kr, kc int) [4]geo.CellRect {
	midRow := rect.Row0 + kr
	midCol := rect.Col0 + kc
	return [4]geo.CellRect{
		{Row0: rect.Row0, Col0: rect.Col0, Row1: midRow, Col1: midCol},
		{Row0: rect.Row0, Col0: midCol, Row1: midRow, Col1: rect.Col1},
		{Row0: midRow, Col0: rect.Col0, Row1: rect.Row1, Col1: midCol},
		{Row0: midRow, Col0: midCol, Row1: rect.Row1, Col1: rect.Col1},
	}
}

// bestQuadSplit scans all joint (row, col) split points and returns
// the one minimizing max−min of |deviation mass| across non-empty
// quadrants; ties break toward the geometric center. At least one
// axis always has a real split because the caller guarantees the rect
// spans more than one cell.
func bestQuadSplit(sums *CellSums, rect geo.CellRect) (kr, kc int) {
	// Candidate offsets along an axis of length n are the interior
	// cuts 1..n-1, or just 0 (no cut) when the axis cannot be divided.
	// Iterating the ranges in place keeps the split scan — the hot
	// inner loop of every quadtree build — free of per-node candidate
	// slices; the one CellSums workspace is then the only
	// build-scoped allocation on this path.
	rLo, rHi := 1, rect.Rows()-1
	if rect.Rows() <= 1 {
		rLo, rHi = 0, 0
	}
	cLo, cHi := 1, rect.Cols()-1
	if rect.Cols() <= 1 {
		cLo, cHi = 0, 0
	}
	bestScore := math.Inf(1)
	bestDist := math.Inf(1)
	for r := rLo; r <= rHi; r++ {
		for c := cLo; c <= cHi; c++ {
			if r == 0 && c == 0 {
				continue // no split at all
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

// Leaves returns leaf nodes in deterministic depth-first order.
func (t *QuadTree) Leaves() []*QuadNode {
	var out []*QuadNode
	var walk func(n *QuadNode)
	walk = func(n *QuadNode) {
		if n == nil {
			return
		}
		if n.IsLeaf() {
			out = append(out, n)
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return out
}

// NumLeaves returns the number of leaf regions.
func (t *QuadTree) NumLeaves() int { return len(t.Leaves()) }

// Partition converts the leaf set into a validated neighborhood
// partition.
func (t *QuadTree) Partition() (*partition.Partition, error) {
	leaves := t.Leaves()
	rects := make([]geo.CellRect, len(leaves))
	for i, n := range leaves {
		rects[i] = n.Rect
	}
	p, err := partition.FromRects(t.Grid, rects)
	if err != nil {
		return nil, fmt.Errorf("kdtree: quadtree leaves do not tile the grid: %w", err)
	}
	return p, nil
}
