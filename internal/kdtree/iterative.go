package kdtree

import (
	"fmt"

	"fairindex/internal/geo"
	"fairindex/internal/partition"
)

// RetrainFunc supplies fresh per-record signed deviations
// (s_i − y_i) for the current neighborhood partition. The Iterative
// Fair KD-tree calls it once per tree level: the caller re-trains its
// classifier with neighborhoods set to the current leaf set and
// returns the updated deviations (Algorithm 3, line 5).
type RetrainFunc func(p *partition.Partition) ([]float64, error)

// BuildIterative constructs the Iterative Fair KD-tree (Algorithm 3):
// a breadth-first construction that refreshes the model's confidence
// scores at every level, so deeper splits see deviations that already
// reflect the coarser redistricting. It improves fairness over
// BuildFair at the cost of ⌈log t⌉ retraining runs (Theorem 4).
//
// One pooled prefix-sum workspace is re-aggregated per level instead
// of allocated, and the level's nodes split in order on the caller's
// goroutine; children are linked level-by-level in node order.
func BuildIterative(grid geo.Grid, cells []geo.Cell, cfg Config, retrain RetrainFunc) (*Tree, error) {
	if err := validateBuild(grid, cells, cfg.Height); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if retrain == nil {
		return nil, fmt.Errorf("%w: nil retrain callback", ErrBadInput)
	}
	t := &Tree{Grid: grid, Height: cfg.Height}
	t.Root = &Node{Rect: grid.Bounds()}
	level := []*Node{t.Root}

	sums := cellSumsPool.Get().(*CellSums)
	defer sums.release()

	for depth := 0; depth < cfg.Height && len(level) > 0; depth++ {
		// The current level is a complete non-overlapping partitioning
		// of the grid; hand it to the caller for retraining.
		p, err := t.Partition()
		if err != nil {
			return nil, err
		}
		deviations, err := retrain(p)
		if err != nil {
			return nil, fmt.Errorf("kdtree: retrain at depth %d: %w", depth, err)
		}
		if len(deviations) != len(cells) {
			return nil, fmt.Errorf("%w: retrain returned %d deviations for %d records",
				ErrBadInput, len(deviations), len(cells))
		}
		if err := sums.reset(grid, cells, deviations); err != nil {
			return nil, err
		}
		splitLevel(level, sums, cfg, depth)
		var next []*Node
		for _, n := range level {
			if n.Left != nil {
				next = append(next, n.Left, n.Right)
			}
		}
		level = next
	}
	return t, nil
}

// splitLevel evaluates every node of one breadth-first level: nodes
// that can split get their axis, offset and children assigned; the
// rest stay leaves.
func splitLevel(level []*Node, sums *CellSums, cfg Config, depth int) {
	for _, n := range level {
		axis, ok := splitAxis(n.Rect, depth)
		if !ok {
			continue // stays a leaf
		}
		k := bestSplit(n.Rect, axis, func(_ int, left, right geo.CellRect) float64 {
			return splitScore(cfg.Objective, cfg.Lambda, sums, left, right)
		})
		if k < 0 {
			continue
		}
		left, right := splitRect(n.Rect, axis, k)
		n.Axis = axis
		n.SplitK = k
		n.Left = &Node{Rect: left, Depth: depth + 1}
		n.Right = &Node{Rect: right, Depth: depth + 1}
	}
}
