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

	// Workers bounds the goroutines Fit, FitGrouped and the
	// PredictProba variants use (<= 1 = single-threaded; fits under
	// 2048 rows always run inline). Results are bit-identical for any
	// value: the forward passes score rows independently, and the
	// gradient runs each column's sum (and the bias and per-group
	// residual sums) as its own task, still accumulated in row order —
	// only the order across sums is parallel. Not part of the model;
	// not serialized.
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

// Fit implements Classifier. The dense training loop is bit-identical
// to FitReference (the retained naive implementation): the scratch
// pooling, the flat standardized matrix, the optionally parallel
// forward pass and the per-column gradient change where intermediate
// values live, never the floating-point operations or their order.
func (m *LogReg) Fit(X [][]float64, y []int, w []float64) error {
	cols, err := checkMatrix(X, y)
	if err != nil {
		return err
	}
	sc := scratchPool.Get().(*fitScratch)
	defer scratchPool.Put(sc)
	w, err = effectiveWeights(len(X), w, sc)
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
	n := len(X)

	// Standardize once into a flat row-major matrix (same values the
	// reference's Transform produces, without the per-row allocations).
	z := grown(sc.zdense, n*cols)
	sc.zdense = z
	mean, scale := m.std.Mean, m.std.Scale
	for i, row := range X {
		off := i * cols
		for j, v := range row {
			z[off+j] = (v - mean[j]) / scale[j]
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
	resid := grown(sc.resid, n)
	sc.resid = resid

	// Forward pass: rows are independent given the epoch's weights, so
	// chunks may run on separate goroutines. It leaves the residual the
	// gradient needs, w·(p−y), computed exactly as the reference does.
	c := newCrew(n, m.Workers)
	defer c.stop()
	forward := func(t int) {
		lo, hi := c.span(t)
		wt, bias := m.weights, m.bias
		for i := lo; i < hi; i++ {
			row := z[i*cols : i*cols+cols]
			var u float64
			for j, v := range row {
				u += wt[j] * v
			}
			resid[i] = w[i] * (sigmoid(u+bias) - label01(y[i]))
		}
	}
	gr := newResidualGrad(z, cols, resid, grad, nil, nil)
	for epoch := 0; epoch < m.Epochs; epoch++ {
		c.each(c.chunks, forward)
		gr.step(c)
		inv := 1 / totalW
		for j := 0; j < cols; j++ {
			m.weights[j] -= m.LearningRate * (grad[j]*inv + m.L2*m.weights[j])
		}
		m.bias -= m.LearningRate * gr.sum * inv
	}
	m.fitted = true
	return nil
}

// PredictProba implements Classifier. Standardization is fused into
// the dot product — (v−μ)/σ is rounded to float64 either way, so the
// scores are bit-identical to transforming first (PredictProbaReference)
// while allocating only the output slice.
func (m *LogReg) PredictProba(X [][]float64) ([]float64, error) {
	if !m.fitted {
		return nil, ErrNotFitted
	}
	if err := validatePredict(X, len(m.weights)); err != nil {
		return nil, err
	}
	out := make([]float64, len(X))
	mean, scale := m.std.Mean, m.std.Scale
	parallelRows(len(X), m.Workers, func(lo, hi int) {
		wt, bias := m.weights, m.bias
		for i := lo; i < hi; i++ {
			var u float64
			for j, v := range X[i] {
				u += wt[j] * ((v - mean[j]) / scale[j])
			}
			out[i] = sigmoid(u + bias)
		}
	})
	return out, nil
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
