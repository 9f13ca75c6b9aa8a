package ml

import "fmt"

// This file retains the naive logistic-regression implementations the
// one training kernel and the one scoring kernel are pinned against.
// The kernel runs a dense matrix as a design with no shared block, so
// FitReference and PredictProbaReference specify it on dense rows and
// the grouped twins specify it on factorized designs (they index
// Group, so they need a shared block). They are deliberately
// sequential and allocation-heavy: fresh buffers everywhere, no
// scratch pooling, no flat matrices, no worker pools. Their value is
// that they share none of the kernels' machinery while defining the
// exact same floating-point operations in the exact same order — so a
// parity test that demands bit-identical outputs (FuzzLogRegKernels,
// internal/pipeline TestBuildReferenceParity and the root
// TestIndexBuildParity) proves the optimizations are pure-perf.
//
// Do not "improve" these: every allocation and loop below is the
// specification.

// FitReference is the retained pre-overhaul dense training loop
// (standardize via Transform, per-row dot, in-place gradient). Fit is
// bit-identical to it for all inputs and any Workers setting.
func (m *LogReg) FitReference(X [][]float64, y []int, w []float64) error {
	w, err := validateFit(X, y, w)
	if err != nil {
		return err
	}
	if m.Epochs <= 0 || m.LearningRate <= 0 {
		return fmt.Errorf("ml: logreg needs positive epochs and learning rate, got %d and %v", m.Epochs, m.LearningRate)
	}
	m.std, err = FitStandardizer(X, w)
	if err != nil {
		return err
	}
	Z := m.std.Transform(X)
	n, cols := len(Z), len(Z[0])

	var totalW float64
	for _, wi := range w {
		totalW += wi
	}

	m.weights = make([]float64, cols)
	m.bias = 0
	grad := make([]float64, cols)

	for epoch := 0; epoch < m.Epochs; epoch++ {
		for j := range grad {
			grad[j] = 0
		}
		var gradB float64
		for i := 0; i < n; i++ {
			p := sigmoid(dot(m.weights, Z[i]) + m.bias)
			g := w[i] * (p - label01(y[i]))
			row := Z[i]
			for j := 0; j < cols; j++ {
				grad[j] += g * row[j]
			}
			gradB += g
		}
		inv := 1 / totalW
		for j := 0; j < cols; j++ {
			m.weights[j] -= m.LearningRate * (grad[j]*inv + m.L2*m.weights[j])
		}
		m.bias -= m.LearningRate * gradB * inv
	}
	m.fitted = true
	return nil
}

// PredictProbaReference is the retained transform-then-dot scoring
// loop; PredictProba is bit-identical to it.
func (m *LogReg) PredictProbaReference(X [][]float64) ([]float64, error) {
	if !m.fitted {
		return nil, ErrNotFitted
	}
	if err := validatePredict(X, len(m.weights)); err != nil {
		return nil, err
	}
	Z := m.std.Transform(X)
	out := make([]float64, len(Z))
	for i, row := range Z {
		out[i] = sigmoid(dot(m.weights, row) + m.bias)
	}
	return out, nil
}

// FitGroupedReference is the naive twin of FitGrouped: the same
// grouped arithmetic (per-group shared dots, per-group gradient sums
// folded group-major) written with fresh allocations per epoch and no
// parallelism. FitGrouped is bit-identical to it.
func (m *LogReg) FitGroupedReference(d *GroupedDesign, y []int, w []float64) error {
	if err := d.validateGrouped(); err != nil {
		return err
	}
	n := d.Rows()
	if len(y) != n {
		return fmt.Errorf("%w: %d rows vs %d labels", ErrShape, n, len(y))
	}
	if w == nil {
		w = make([]float64, n)
		for i := range w {
			w[i] = 1
		}
	} else {
		if len(w) != n {
			return fmt.Errorf("%w: %d weights for %d rows", ErrBadWeights, len(w), n)
		}
		var total float64
		for i, wi := range w {
			if wi < 0 {
				return fmt.Errorf("%w: negative weight %v at row %d", ErrBadWeights, wi, i)
			}
			total += wi
		}
		if total <= 0 {
			return fmt.Errorf("%w: weights sum to %v", ErrBadWeights, total)
		}
	}
	if m.Epochs <= 0 || m.LearningRate <= 0 {
		return fmt.Errorf("ml: logreg needs positive epochs and learning rate, got %d and %v", m.Epochs, m.LearningRate)
	}
	var err error
	m.std, err = fitStandardizerGrouped(d, w)
	if err != nil {
		return err
	}
	bcols, scols := d.BaseCols(), d.SharedCols()
	cols := bcols + scols
	numG := len(d.Shared)
	mean, scale := m.std.Mean, m.std.Scale

	zb := make([][]float64, n)
	for i, row := range d.Base {
		zi := make([]float64, bcols)
		for j, v := range row {
			zi[j] = (v - mean[j]) / scale[j]
		}
		zb[i] = zi
	}
	zs := make([][]float64, numG)
	for r, row := range d.Shared {
		zr := make([]float64, scols)
		for j, v := range row {
			zr[j] = (v - mean[bcols+j]) / scale[bcols+j]
		}
		zs[r] = zr
	}

	var totalW float64
	for _, wi := range w {
		totalW += wi
	}

	m.weights = make([]float64, cols)
	m.bias = 0

	for epoch := 0; epoch < m.Epochs; epoch++ {
		sdot := make([]float64, numG)
		for r := 0; r < numG; r++ {
			var s float64
			for j, v := range zs[r] {
				s += m.weights[bcols+j] * v
			}
			sdot[r] = s
		}
		preds := make([]float64, n)
		for i := 0; i < n; i++ {
			var u float64
			for j, v := range zb[i] {
				u += m.weights[j] * v
			}
			preds[i] = sigmoid(u + sdot[d.Group[i]] + m.bias)
		}
		grad := make([]float64, cols)
		sgrad := make([]float64, numG)
		var gradB float64
		for i := 0; i < n; i++ {
			g := w[i] * (preds[i] - label01(y[i]))
			for j, v := range zb[i] {
				grad[j] += g * v
			}
			sgrad[d.Group[i]] += g
			gradB += g
		}
		for r := 0; r < numG; r++ {
			gr := sgrad[r]
			for j, v := range zs[r] {
				grad[bcols+j] += gr * v
			}
		}
		inv := 1 / totalW
		for j := 0; j < cols; j++ {
			m.weights[j] -= m.LearningRate * (grad[j]*inv + m.L2*m.weights[j])
		}
		m.bias -= m.LearningRate * gradB * inv
	}
	m.fitted = true
	return nil
}

// PredictProbaGroupedReference is the naive twin of
// PredictProbaGrouped; the optimized version is bit-identical to it.
func (m *LogReg) PredictProbaGroupedReference(d *GroupedDesign) ([]float64, error) {
	if !m.fitted {
		return nil, ErrNotFitted
	}
	if err := d.validateGrouped(); err != nil {
		return nil, err
	}
	bcols, scols := d.BaseCols(), d.SharedCols()
	if bcols+scols != len(m.weights) {
		return nil, fmt.Errorf("%w: design has %d columns, model was fitted on %d", ErrShape, bcols+scols, len(m.weights))
	}
	mean, scale := m.std.Mean, m.std.Scale
	sdot := make([]float64, len(d.Shared))
	for r, row := range d.Shared {
		var s float64
		for j, v := range row {
			s += m.weights[bcols+j] * ((v - mean[bcols+j]) / scale[bcols+j])
		}
		sdot[r] = s
	}
	out := make([]float64, d.Rows())
	for i := range out {
		var u float64
		for j, v := range d.Base[i] {
			u += m.weights[j] * ((v - mean[j]) / scale[j])
		}
		out[i] = sigmoid(u + sdot[d.Group[i]] + m.bias)
	}
	return out, nil
}

// validateGrouped is validate for the grouped twins, which index Group
// and so refuse a design with no shared block.
func (d *GroupedDesign) validateGrouped() error {
	if err := d.validate(); err != nil {
		return err
	}
	if len(d.Shared) == 0 {
		return fmt.Errorf("%w: grouped reference needs a shared block", ErrShape)
	}
	return nil
}
