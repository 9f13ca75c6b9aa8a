package ml

import "fmt"

// GroupedDesign is a design matrix in factorized form: row i of the
// materialized matrix is the concatenation of Base[i] (per-row
// columns) and Shared[Group[i]] (columns shared by every row of the
// same group). This is exactly the shape the pipeline's neighborhood
// encodings have — a record's location block depends only on its
// region — and it is what makes build-time training tractable at
// 100k–1M records: the wide shared block (centroid + one-hot columns)
// is touched once per group per epoch instead of once per row.
//
// A dense matrix is the design with no shared block (Shared empty,
// Group nil); the grouped references need a shared block.
//
// A GroupedDesign may share backing arrays with the caller; fitters
// only read it.
type GroupedDesign struct {
	Base   [][]float64 // n rows × B per-row columns (B may be 0)
	Group  []int       // n group ids in [0, len(Shared)); nil with no shared block
	Shared [][]float64 // G rows × S shared columns; empty with no shared block
}

// Rows returns the number of design rows.
func (d *GroupedDesign) Rows() int { return len(d.Base) }

// BaseCols returns B, the per-row column count.
func (d *GroupedDesign) BaseCols() int {
	if len(d.Base) == 0 {
		return 0
	}
	return len(d.Base[0])
}

// SharedCols returns S, the shared column count.
func (d *GroupedDesign) SharedCols() int {
	if len(d.Shared) == 0 {
		return 0
	}
	return len(d.Shared[0])
}

// Cols returns the column count B+S of the materialized matrix.
func (d *GroupedDesign) Cols() int { return d.BaseCols() + d.SharedCols() }

// Row materializes one dense row in the column order the fitters use
// (base columns first, then shared). Tests use it; the kernels never
// materialize rows.
func (d *GroupedDesign) Row(i int) []float64 {
	out := make([]float64, 0, d.Cols())
	out = append(out, d.Base[i]...)
	return append(out, d.sharedRow(i)...)
}

// sharedRow returns row i's shared columns, nil with no shared block.
func (d *GroupedDesign) sharedRow(i int) []float64 {
	if d.Group == nil {
		return nil
	}
	return d.Shared[d.Group[i]]
}

// validate checks the shape invariants shared by the grouped fitters.
func (d *GroupedDesign) validate() error {
	n := len(d.Base)
	if n == 0 {
		return ErrNoData
	}
	if (d.Group != nil || len(d.Shared) > 0) && len(d.Group) != n {
		return fmt.Errorf("%w: %d base rows vs %d group ids", ErrShape, n, len(d.Group))
	}
	b := len(d.Base[0])
	for i, row := range d.Base {
		if len(row) != b {
			return fmt.Errorf("%w: base row %d has %d columns, want %d", ErrShape, i, len(row), b)
		}
	}
	g := len(d.Shared)
	var s int
	if g > 0 {
		s = len(d.Shared[0])
	}
	for r, row := range d.Shared {
		if len(row) != s {
			return fmt.Errorf("%w: shared row %d has %d columns, want %d", ErrShape, r, len(row), s)
		}
	}
	if b+s == 0 {
		return fmt.Errorf("%w: design has no columns", ErrShape)
	}
	for i, gi := range d.Group {
		if gi < 0 || gi >= g {
			return fmt.Errorf("%w: row %d group id %d out of range [0,%d)", ErrShape, i, gi, g)
		}
	}
	return nil
}
