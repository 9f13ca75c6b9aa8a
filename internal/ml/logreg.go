package ml

import (
	"fmt"
	"math"
)

// LogReg is an L2-regularized logistic regression trained by
// full-batch gradient descent on internally standardized features.
// The zero value is not usable; construct with NewLogReg.
//
// Logistic regression is the paper's primary classifier (§5.3.2):
// trained to convergence it is nearly calibrated on its training
// distribution overall, which is exactly the regime in which
// per-neighborhood miscalibration (Figure 6) is interesting.
type LogReg struct {
	// Hyperparameters; changing them after Fit has no effect until the
	// next Fit.
	LearningRate float64
	Epochs       int
	L2           float64

	// Workers bounds the goroutines of the one training kernel and the
	// one scoring kernel, which every Fit and PredictProba variant runs
	// (<= 1 = single-threaded; fits under 2048 rows always run inline).
	// Results are bit-identical for any value: the forward passes score
	// rows independently, and the gradient runs each column's sum (and
	// the bias and per-group residual sums) as its own task, still
	// accumulated in row order — only the order across sums is
	// parallel. Not part of the model; not serialized.
	Workers int

	std     *Standardizer
	weights []float64
	bias    float64
	fitted  bool
}

// NewLogReg returns a logistic regression with defaults tuned for the
// paper-scale datasets (~10³ records, ≤ ~10³ columns).
func NewLogReg() *LogReg {
	return &LogReg{LearningRate: 0.5, Epochs: 300, L2: 1e-4}
}

// Name implements Classifier.
func (m *LogReg) Name() string { return "logreg" }

// Fit implements Classifier: the training kernel over X as a design
// with no shared block, bit-identical to FitReference.
func (m *LogReg) Fit(X [][]float64, y []int, w []float64) error {
	if _, err := checkMatrix(X, y); err != nil {
		return err
	}
	return m.fit(&GroupedDesign{Base: X}, y, w)
}

// PredictProba implements Classifier: the scoring kernel over X as a
// design with no shared block, bit-identical to PredictProbaReference.
// Zero rows score to an empty slice.
func (m *LogReg) PredictProba(X [][]float64) ([]float64, error) {
	if !m.fitted {
		return nil, ErrNotFitted
	}
	if err := validatePredict(X, len(m.weights)); err != nil {
		return nil, err
	}
	return m.predict(&GroupedDesign{Base: X}), nil
}

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
// numeric re-association (see DESIGN.md §10); without a shared block
// neither step runs. The exact semantics are pinned bit-identically by
// FitGroupedReference, the retained naive implementation: pooling,
// flat buffers and Workers never change a bit.
//
// Standardization is NOT re-associated: means and scales accumulate
// in the same row-then-column order as the dense path, so they are
// bit-identical to fitting on materialized rows.
func (m *LogReg) FitGrouped(d *GroupedDesign, y []int, w []float64) error {
	if err := d.validate(); err != nil {
		return err
	}
	if len(y) != d.Rows() {
		return fmt.Errorf("%w: %d rows vs %d labels", ErrShape, d.Rows(), len(y))
	}
	return m.fit(d, y, w)
}

// fit is the one training kernel, on a design validated against y.
func (m *LogReg) fit(d *GroupedDesign, y []int, w []float64) error {
	n := d.Rows()
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
	// leaves the residuals w·(p−y) for the gradient. A row's shared dot
	// joins its base dot before the bias, (u+sdot)+bias.
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
			if group != nil {
				u += sdot[group[i]]
			}
			resid[i] = w[i] * (sigmoid(u+bias) - label01(y[i]))
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
	if cols := d.Cols(); cols != len(m.weights) {
		return nil, fmt.Errorf("%w: design has %d columns, model was fitted on %d", ErrShape, cols, len(m.weights))
	}
	return m.predict(d), nil
}

// predict is the one scoring kernel, on a design validated against
// the model. Inputs too small for a crew — a single Score among them —
// are scored inline and allocate only the output.
func (m *LogReg) predict(d *GroupedDesign) []float64 {
	bcols := d.BaseCols()
	mean, scale := m.std.Mean, m.std.Scale
	sdot := make([]float64, len(d.Shared))
	for r, row := range d.Shared {
		var s float64
		for j, v := range row {
			s += m.weights[bcols+j] * ((v - mean[bcols+j]) / scale[bcols+j])
		}
		sdot[r] = s
	}
	base, group := d.Base, d.Group
	out := make([]float64, len(base))
	if min(m.Workers, len(base)/minChunk) <= 1 {
		m.scoreRows(base, group, sdot, out, 0, len(base))
		return out
	}
	// Rows are independent: each chunk writes only its own scores.
	c := newCrew(len(base), m.Workers)
	defer c.stop()
	c.each(c.chunks, func(t int) {
		lo, hi := c.span(t)
		m.scoreRows(base, group, sdot, out, lo, hi)
	})
	return out
}

// scoreRows scores rows [lo, hi) into out. Standardization is fused
// into the dot product — (v−μ)/σ rounds the same either way.
func (m *LogReg) scoreRows(base [][]float64, group []int, sdot, out []float64, lo, hi int) {
	wt, bias := m.weights, m.bias
	mean, scale := m.std.Mean, m.std.Scale
	for i := lo; i < hi; i++ {
		var u float64
		for j, v := range base[i] {
			u += wt[j] * ((v - mean[j]) / scale[j])
		}
		if group != nil {
			u += sdot[group[i]]
		}
		out[i] = sigmoid(u + bias)
	}
}

// FeatureImportance implements FeatureImporter: normalized |weight|
// on the standardized scale, so columns are directly comparable.
func (m *LogReg) FeatureImportance() []float64 {
	if !m.fitted {
		return nil
	}
	imp := make([]float64, len(m.weights))
	var total float64
	for j, wj := range m.weights {
		imp[j] = math.Abs(wj)
		total += imp[j]
	}
	if total > 0 {
		for j := range imp {
			imp[j] /= total
		}
	}
	return imp
}

// Coefficients returns a copy of the fitted weights (standardized
// scale) and the intercept. Returns an error before Fit.
func (m *LogReg) Coefficients() ([]float64, float64, error) {
	if !m.fitted {
		return nil, 0, ErrNotFitted
	}
	return append([]float64(nil), m.weights...), m.bias, nil
}

func sigmoid(z float64) float64 {
	// Split to stay numerically stable for large |z|.
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
