package kdtree

import (
	"math"

	"fairindex/internal/geo"
)

// BuildMedian constructs the standard median KD-tree baseline: each
// node splits at the offset that balances record counts between the
// two children (the grid form of the point-median split), alternating
// axes by depth. Cells outside any record still belong to some leaf —
// KD-trees cover the whole domain, the property the paper selects
// them for (§4).
func BuildMedian(grid geo.Grid, cells []geo.Cell, height int) (*Tree, error) {
	if err := validateBuild(grid, cells, height); err != nil {
		return nil, err
	}
	sums, err := newCellSumsPooled(grid, cells, nil)
	if err != nil {
		return nil, err
	}
	defer sums.release()
	g := &grower{height: height, score: func(left, right geo.CellRect) float64 {
		return math.Abs(sums.CountRect(left) - sums.CountRect(right))
	}}
	t := &Tree{Grid: grid, Height: height}
	t.Root = g.grow(grid.Bounds(), 0)
	return t, nil
}
