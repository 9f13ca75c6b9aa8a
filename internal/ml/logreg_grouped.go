package ml

import (
	"fmt"
	"math"
)

// FitGrouped trains the model on a factorized design matrix. It fits
// the same logistic regression Fit would on the materialized rows,
// but exploits the factorization so one full-batch epoch costs
// O(n·B + G·S) instead of O(n·(B+S)):
//
//   - the forward pass computes each group's shared-block partial dot
//     product once per epoch and adds it to the per-row base dot;
//   - the shared-column gradient folds per-group residual sums
//     (accumulated in row order) into the shared rows, group-major.
//
// The floating-point grouping of the shared-block sums therefore
// differs from the dense loop — this is the pipeline's one deliberate
// numeric re-association (see DESIGN.md §10). The exact semantics are
// pinned bit-identically by FitGroupedReference, the retained naive
// implementation, via the build parity tests: pooling, flat buffers
// and Workers never change a bit.
//
// Standardization is NOT re-associated: means and scales accumulate
// in the same row-then-column order as the dense path, so they are
// bit-identical to fitting on materialized rows.
func (m *LogReg) FitGrouped(d *GroupedDesign, y []int, w []float64) error {
	if err := d.validate(); err != nil {
		return err
	}
	n := d.Rows()
	if len(y) != n {
		return fmt.Errorf("%w: %d rows vs %d labels", ErrShape, n, len(y))
	}
	sc := scratchPool.Get().(*fitScratch)
	defer scratchPool.Put(sc)
	w, err := effectiveWeights(n, w, sc)
	if err != nil {
		return err
	}
	if m.Epochs <= 0 || m.LearningRate <= 0 {
		return fmt.Errorf("ml: logreg needs positive epochs and learning rate, got %d and %v", m.Epochs, m.LearningRate)
	}
	m.std, err = fitStandardizerGrouped(d, w)
	if err != nil {
		return err
	}
	bcols, scols := d.BaseCols(), d.SharedCols()
	cols := bcols + scols
	numG := len(d.Shared)
	mean, scale := m.std.Mean, m.std.Scale

	// Standardize both blocks once, into flat row-major tables.
	zb := grown(sc.zbase, n*bcols)
	sc.zbase = zb
	for i, row := range d.Base {
		off := i * bcols
		for j, v := range row {
			zb[off+j] = (v - mean[j]) / scale[j]
		}
	}
	zs := grown(sc.zshared, numG*scols)
	sc.zshared = zs
	for r, row := range d.Shared {
		off := r * scols
		for j, v := range row {
			zs[off+j] = (v - mean[bcols+j]) / scale[bcols+j]
		}
	}

	var totalW float64
	for _, wi := range w {
		totalW += wi
	}

	m.weights = make([]float64, cols)
	m.bias = 0
	grad := grown(sc.grad, cols)
	sc.grad = grad
	sdot := grown(sc.sharedDot, numG)
	sc.sharedDot = sdot
	sgrad := grown(sc.sharedGrad, numG)
	sc.sharedGrad = sgrad
	resid := grown(sc.resid, n)
	sc.resid = resid
	group := d.Group

	// Forward pass: rows independent, chunks may run in parallel; it
	// leaves the residuals w·(p−y) for the gradient.
	c := newCrew(n, m.Workers)
	defer c.stop()
	forward := func(t int) {
		lo, hi := c.span(t)
		wt, bias := m.weights, m.bias
		for i := lo; i < hi; i++ {
			row := zb[i*bcols : i*bcols+bcols]
			var u float64
			for j, v := range row {
				u += wt[j] * v
			}
			resid[i] = w[i] * (sigmoid(u+sdot[group[i]]+bias) - label01(y[i]))
		}
	}
	gr := newResidualGrad(zb, bcols, resid, grad[:bcols], group, sgrad)
	sharedBlocks := columnBlocks(scols)
	for epoch := 0; epoch < m.Epochs; epoch++ {
		// Per-group shared-block dot products for this epoch's weights.
		wShared := m.weights[bcols:]
		for r := 0; r < numG; r++ {
			row := zs[r*scols : r*scols+scols]
			var s float64
			for j, v := range row {
				s += wShared[j] * v
			}
			sdot[r] = s
		}
		c.each(c.chunks, forward)
		// Base-column, bias and per-group residual sums, each in row
		// order.
		gr.step(c)
		// Fold the shared-column gradient: each column sums its groups
		// in ascending order — the defined order.
		for b := 0; b < sharedBlocks; b++ {
			lo, hi := blockBounds(scols, sharedBlocks, b)
			columnSums(zs, scols, sgrad, grad[bcols:], lo, hi)
		}
		inv := 1 / totalW
		for j := 0; j < cols; j++ {
			m.weights[j] -= m.LearningRate * (grad[j]*inv + m.L2*m.weights[j])
		}
		m.bias -= m.LearningRate * gr.sum * inv
	}
	m.fitted = true
	return nil
}

// PredictProbaGrouped scores a factorized design with the grouped
// forward pass (per-group shared dot + per-row base dot) — the same
// association FitGrouped trains with, so pipeline-reported scores are
// consistent with training. Bit-identically pinned by
// PredictProbaGroupedReference.
func (m *LogReg) PredictProbaGrouped(d *GroupedDesign) ([]float64, error) {
	if !m.fitted {
		return nil, ErrNotFitted
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	bcols, scols := d.BaseCols(), d.SharedCols()
	if bcols+scols != len(m.weights) {
		return nil, fmt.Errorf("%w: design has %d columns, model was fitted on %d", ErrShape, bcols+scols, len(m.weights))
	}
	mean, scale := m.std.Mean, m.std.Scale
	sdot := make([]float64, len(d.Shared))
	wShared := m.weights[bcols:]
	for r, row := range d.Shared {
		var s float64
		for j, v := range row {
			s += wShared[j] * ((v - mean[bcols+j]) / scale[bcols+j])
		}
		sdot[r] = s
	}
	out := make([]float64, d.Rows())
	group := d.Group
	parallelRows(d.Rows(), m.Workers, func(lo, hi int) {
		wt, bias := m.weights, m.bias
		for i := lo; i < hi; i++ {
			var u float64
			for j, v := range d.Base[i] {
				u += wt[j] * ((v - mean[j]) / scale[j])
			}
			out[i] = sigmoid(u + sdot[group[i]] + bias)
		}
	})
	return out, nil
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
		for j, v := range d.Shared[d.Group[i]] {
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
		for j, v := range d.Shared[d.Group[i]] {
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
