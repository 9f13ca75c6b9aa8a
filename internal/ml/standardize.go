package ml

import (
	"fmt"
	"math"
)

// Standardizer shifts and scales columns to zero mean and unit
// variance, weighted by sample weights. Constant columns are left
// centered with scale 1 so they do not blow up.
type Standardizer struct {
	Mean  []float64
	Scale []float64
}

// FitStandardizer computes weighted column means and standard
// deviations. w must be validated (non-nil, non-negative, positive
// sum) by the caller.
func FitStandardizer(X [][]float64, w []float64) (*Standardizer, error) {
	if len(X) == 0 {
		return nil, ErrNoData
	}
	cols := len(X[0])
	s := &Standardizer{
		Mean:  make([]float64, cols),
		Scale: make([]float64, cols),
	}
	var totalW float64
	for i, row := range X {
		if len(row) != cols {
			return nil, fmt.Errorf("%w: row %d has %d columns, want %d", ErrShape, i, len(row), cols)
		}
		for j, v := range row {
			s.Mean[j] += w[i] * v
		}
		totalW += w[i]
	}
	if totalW <= 0 {
		return nil, fmt.Errorf("%w: weights sum to %v", ErrBadWeights, totalW)
	}
	for j := range s.Mean {
		s.Mean[j] /= totalW
	}
	for i, row := range X {
		for j, v := range row {
			d := v - s.Mean[j]
			s.Scale[j] += w[i] * d * d
		}
	}
	for j := range s.Scale {
		s.Scale[j] = math.Sqrt(s.Scale[j] / totalW)
		if s.Scale[j] < 1e-12 {
			s.Scale[j] = 1 // constant column: center only
		}
	}
	return s, nil
}

// Transform returns a standardized copy of X.
func (s *Standardizer) Transform(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		r := make([]float64, len(row))
		for j, v := range row {
			r[j] = (v - s.Mean[j]) / s.Scale[j]
		}
		out[i] = r
	}
	return out
}

// fitStandardizerGrouped computes the weighted column means and
// scales FitStandardizer would produce on the materialized matrix.
// The per-column accumulation order is identical (rows ascending,
// base-then-shared within each row), so the result is bit-identical
// to the dense path — standardization is deliberately NOT part of the
// grouped re-association.
func fitStandardizerGrouped(d *GroupedDesign, w []float64) (*Standardizer, error) {
	bcols := d.BaseCols()
	cols := bcols + d.SharedCols()
	st := &Standardizer{
		Mean:  make([]float64, cols),
		Scale: make([]float64, cols),
	}
	var totalW float64
	for i, row := range d.Base {
		wi := w[i]
		for j, v := range row {
			st.Mean[j] += wi * v
		}
		for j, v := range d.sharedRow(i) {
			st.Mean[bcols+j] += wi * v
		}
		totalW += wi
	}
	if totalW <= 0 {
		return nil, fmt.Errorf("%w: weights sum to %v", ErrBadWeights, totalW)
	}
	for j := range st.Mean {
		st.Mean[j] /= totalW
	}
	for i, row := range d.Base {
		wi := w[i]
		for j, v := range row {
			dv := v - st.Mean[j]
			st.Scale[j] += wi * dv * dv
		}
		for j, v := range d.sharedRow(i) {
			dv := v - st.Mean[bcols+j]
			st.Scale[bcols+j] += wi * dv * dv
		}
	}
	for j := range st.Scale {
		st.Scale[j] = math.Sqrt(st.Scale[j] / totalW)
		if st.Scale[j] < 1e-12 {
			st.Scale[j] = 1 // constant column: center only
		}
	}
	return st, nil
}
