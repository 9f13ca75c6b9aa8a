package kdtree

import (
	"fmt"

	"fairindex/internal/geo"
)

// BuildFair constructs the Fair KD-tree (Algorithms 1 and 2): a
// depth-first KD construction whose split offset minimizes the
// fairness objective over the signed deviations d_i = s_i − y_i of an
// initial classifier run.
//
// cells[i] is record i's grid cell and deviations[i] its signed
// deviation. The deviations stay fixed for the whole construction —
// that is the Fair KD-tree's defining trait and its weakness that
// Algorithm 3 (BuildIterative) addresses.
//
// The tree grows depth-first on the caller's goroutine over one
// prefix-sum workspace allocated for the build.
func BuildFair(grid geo.Grid, cells []geo.Cell, deviations []float64, cfg Config) (*Tree, error) {
	if err := validateBuild(grid, cells, cfg.Height); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(deviations) != len(cells) {
		return nil, fmt.Errorf("%w: %d deviations for %d records", ErrBadInput, len(deviations), len(cells))
	}
	sums, err := NewCellSums(grid, cells, deviations)
	if err != nil {
		return nil, err
	}
	g := &grower{height: cfg.Height, score: func(left, right geo.CellRect) float64 {
		return splitScore(cfg.Objective, cfg.Lambda, sums, left, right)
	}}
	t := &Tree{Grid: grid, Height: cfg.Height}
	t.Root = g.grow(grid.Bounds(), 0)
	return t, nil
}
