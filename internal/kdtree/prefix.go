package kdtree

import (
	"fmt"

	"fairindex/internal/geo"
)

// CellSums holds 2-D prefix sums of per-cell record counts and
// per-cell signed deviation mass, enabling O(1) rectangle queries.
// This is what makes every split scan O(U' + V') and the whole build
// match the paper's O(|D|·⌈log t⌉) complexity (Theorem 3): each
// record contributes to the aggregates once per level.
//
// A CellSums is the builders' only O(grid) workspace: each build
// allocates one (the scored builders two), and the iterative builder
// re-aggregates its one workspace in place once per level.
type CellSums struct {
	grid  geo.Grid
	count []float64 // (U+1)×(V+1) prefix sums of record counts
	value []float64 // (U+1)×(V+1) prefix sums of deviations
	abs   []float64 // prefix sums of per-cell |deviation mass|
}

// NewCellSums aggregates records into per-cell sums. values[i] is the
// signed deviation (s_i − y_i) of record i; nil means all-zero values
// (sufficient for the median tree, which only needs counts).
func NewCellSums(grid geo.Grid, cells []geo.Cell, values []float64) (*CellSums, error) {
	s := &CellSums{}
	if err := s.reset(grid, cells, values); err != nil {
		return nil, err
	}
	return s, nil
}

// growZeroed returns buf resized to n with every element zero.
func growZeroed(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// reset re-aggregates the workspace over a new record set, reusing
// the table capacity. This is the per-level step of the iterative
// builder and the entry point of every fresh build.
func (s *CellSums) reset(grid geo.Grid, cells []geo.Cell, values []float64) error {
	if !grid.Valid() {
		return geo.ErrBadGrid
	}
	if values != nil && len(values) != len(cells) {
		return fmt.Errorf("%w: %d values for %d cells", ErrBadInput, len(values), len(cells))
	}
	stride := grid.V + 1
	size := (grid.U + 1) * stride
	s.grid = grid
	s.count = growZeroed(s.count, size)
	s.value = growZeroed(s.value, size)
	s.abs = growZeroed(s.abs, size)
	// Scatter per-cell totals into the (row+1, col+1) slot...
	for i, c := range cells {
		if !grid.InBounds(c) {
			return fmt.Errorf("%w: record %d cell %v outside %v", ErrBadInput, i, c, grid)
		}
		at := (c.Row+1)*stride + (c.Col + 1)
		s.count[at]++
		if values != nil {
			s.value[at] += values[i]
		}
	}
	// ...take per-cell magnitudes before prefix summing...
	for r := 1; r <= grid.U; r++ {
		for c := 1; c <= grid.V; c++ {
			at := r*stride + c
			if s.value[at] < 0 {
				s.abs[at] = -s.value[at]
			} else {
				s.abs[at] = s.value[at]
			}
		}
	}
	// ...then sweep into inclusive 2-D prefix sums.
	for r := 1; r <= grid.U; r++ {
		for c := 1; c <= grid.V; c++ {
			at := r*stride + c
			s.count[at] += s.count[at-1] + s.count[at-stride] - s.count[at-stride-1]
			s.value[at] += s.value[at-1] + s.value[at-stride] - s.value[at-stride-1]
			s.abs[at] += s.abs[at-1] + s.abs[at-stride] - s.abs[at-stride-1]
		}
	}
	return nil
}

// rectSum evaluates a prefix-sum table over a half-open rect.
func (s *CellSums) rectSum(table []float64, r geo.CellRect) float64 {
	if r.Empty() {
		return 0
	}
	stride := s.grid.V + 1
	a := table[r.Row1*stride+r.Col1]
	b := table[r.Row0*stride+r.Col1]
	c := table[r.Row1*stride+r.Col0]
	d := table[r.Row0*stride+r.Col0]
	return a - b - c + d
}

// CountRect returns the number of records inside the rect.
func (s *CellSums) CountRect(r geo.CellRect) float64 { return s.rectSum(s.count, r) }

// ValueRect returns the summed deviation mass inside the rect.
func (s *CellSums) ValueRect(r geo.CellRect) float64 { return s.rectSum(s.value, r) }

// AbsRect returns the summed per-cell |deviation mass| inside the
// rect — an upper bound on |ValueRect| that is additive across
// sub-rects, used to normalize the composite objective per node.
func (s *CellSums) AbsRect(r geo.CellRect) float64 { return s.rectSum(s.abs, r) }

// Grid returns the grid the sums were built over.
func (s *CellSums) Grid() geo.Grid { return s.grid }
