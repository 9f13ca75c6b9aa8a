package kdtree

import "fairindex/internal/geo"

// grower is the shared recursive construction engine behind the
// median and fair KD builders: pick the depth's axis, scan split
// candidates over the prefix-sum workspace with the builder's scoring
// function, recurse into both halves, left first. The depth-first
// leaf order it produces is what numbers the regions.
type grower struct {
	height int
	score  func(left, right geo.CellRect) float64
}

// grow builds the subtree rooted at rect.
func (g *grower) grow(rect geo.CellRect, depth int) *Node {
	n := &Node{Rect: rect, Depth: depth}
	if depth >= g.height {
		return n
	}
	axis, ok := splitAxis(rect, depth)
	if !ok {
		return n
	}
	k := bestSplit(rect, axis, func(_ int, left, right geo.CellRect) float64 {
		return g.score(left, right)
	})
	if k < 0 {
		return n
	}
	left, right := splitRect(rect, axis, k)
	n.Axis = axis
	n.SplitK = k
	n.Left = g.grow(left, depth+1)
	n.Right = g.grow(right, depth+1)
	return n
}
