package ml

import (
	"fmt"
	"math"
)

// Platt is Platt scaling [Platt 1999], the paper's reference
// post-processing calibration technique ([25] in its related work):
// a one-dimensional logistic regression mapping raw confidence
// scores to calibrated probabilities via sigmoid(a·logit(s) + b).
//
// It is used two ways in this library: wrapped around Gaussian naive
// Bayes (whose independence assumption makes raw posteriors
// overconfident under correlated features), and as the standalone
// post-processing mitigation baseline.
type Platt struct {
	// MaxIter and LearningRate control the fitting loop.
	MaxIter      int
	LearningRate float64

	a, b   float64
	fitted bool
}

// NewPlatt returns a calibrator with defaults adequate for
// paper-scale data.
func NewPlatt() *Platt {
	return &Platt{MaxIter: 200, LearningRate: 0.5}
}

// Fit learns the scaling from raw scores and labels, optionally
// weighted (nil = uniform).
func (p *Platt) Fit(scores []float64, labels []int, w []float64) error {
	if len(scores) == 0 {
		return ErrNoData
	}
	if len(labels) != len(scores) {
		return fmt.Errorf("%w: %d scores vs %d labels", ErrShape, len(scores), len(labels))
	}
	if w != nil && len(w) != len(scores) {
		return fmt.Errorf("%w: %d weights for %d scores", ErrBadWeights, len(w), len(scores))
	}
	if p.MaxIter <= 0 || p.LearningRate <= 0 {
		return fmt.Errorf("ml: platt needs positive MaxIter and LearningRate, got %d and %v", p.MaxIter, p.LearningRate)
	}
	z := make([]float64, len(scores))
	for i, s := range scores {
		z[i] = safeLogit(s)
	}
	var totalW float64
	weight := func(i int) float64 {
		if w == nil {
			return 1
		}
		return w[i]
	}
	for i := range scores {
		wi := weight(i)
		if wi < 0 {
			return fmt.Errorf("%w: negative weight %v at %d", ErrBadWeights, wi, i)
		}
		totalW += wi
	}
	if totalW <= 0 {
		return fmt.Errorf("%w: weights sum to %v", ErrBadWeights, totalW)
	}
	// Standardize the logits so one learning rate fits all scales.
	var mean, sd float64
	for i, zi := range z {
		mean += weight(i) * zi
	}
	mean /= totalW
	for i, zi := range z {
		d := zi - mean
		sd += weight(i) * d * d
	}
	sd = math.Sqrt(sd / totalW)
	if sd < 1e-12 {
		sd = 1
	}

	// Weighted 1-D logistic regression by gradient descent on the
	// standardized logit; fold the standardization back at the end.
	var aStd, bStd float64 = 1, 0
	for iter := 0; iter < p.MaxIter; iter++ {
		var gradA, gradB float64
		for i, zi := range z {
			x := (zi - mean) / sd
			pred := sigmoid(aStd*x + bStd)
			g := weight(i) * (pred - label01(labels[i]))
			gradA += g * x
			gradB += g
		}
		aStd -= p.LearningRate * gradA / totalW
		bStd -= p.LearningRate * gradB / totalW
	}
	p.a = aStd / sd
	p.b = bStd - aStd*mean/sd
	p.fitted = true
	return nil
}

// Apply maps raw scores to calibrated probabilities. It returns an
// error before Fit.
func (p *Platt) Apply(scores []float64) ([]float64, error) {
	if !p.fitted {
		return nil, ErrNotFitted
	}
	out := make([]float64, len(scores))
	for i, s := range scores {
		out[i] = p.at(s)
	}
	return out, nil
}

// Calibrate maps one raw score to its calibrated probability, as
// Apply does. It returns an error before Fit.
func (p *Platt) Calibrate(score float64) (float64, error) {
	if !p.fitted {
		return 0, ErrNotFitted
	}
	return p.at(score), nil
}

// at is the fitted mapping of one score.
func (p *Platt) at(s float64) float64 { return sigmoid(p.a*safeLogit(s) + p.b) }

// Coefficients returns the fitted (a, b) of sigmoid(a·logit(s) + b).
func (p *Platt) Coefficients() (a, b float64, err error) {
	if !p.fitted {
		return 0, 0, ErrNotFitted
	}
	return p.a, p.b, nil
}

// safeLogit is log(s/(1−s)) with the input clamped away from 0 and 1
// so extreme classifier outputs stay finite.
func safeLogit(s float64) float64 {
	const eps = 1e-7
	if s < eps {
		s = eps
	}
	if s > 1-eps {
		s = 1 - eps
	}
	return math.Log(s / (1 - s))
}

// CalibratedClassifier wraps a base classifier with Platt scaling
// fitted on the training data (the common remedy for naive Bayes'
// overconfident posteriors, cf. scikit-learn's
// CalibratedClassifierCV).
type CalibratedClassifier struct {
	Base     Classifier
	platt    *Platt
	fitted   bool
	baseName string
}

// NewCalibrated wraps base with training-set Platt scaling.
func NewCalibrated(base Classifier) *CalibratedClassifier {
	return &CalibratedClassifier{Base: base, baseName: base.Name()}
}

// Name implements Classifier.
func (c *CalibratedClassifier) Name() string { return c.baseName + "+platt" }

// Fit implements Classifier: it fits the base model, then the scaler
// on the base model's own training scores.
func (c *CalibratedClassifier) Fit(X [][]float64, y []int, w []float64) error {
	if err := c.Base.Fit(X, y, w); err != nil {
		return err
	}
	raw, err := c.Base.PredictProba(X)
	if err != nil {
		return err
	}
	c.platt = NewPlatt()
	if err := c.platt.Fit(raw, y, w); err != nil {
		return err
	}
	c.fitted = true
	return nil
}

// PredictProba implements Classifier.
func (c *CalibratedClassifier) PredictProba(X [][]float64) ([]float64, error) {
	if !c.fitted {
		return nil, ErrNotFitted
	}
	raw, err := c.Base.PredictProba(X)
	if err != nil {
		return nil, err
	}
	return c.platt.Apply(raw)
}

// FeatureImportance delegates to the base model when available.
func (c *CalibratedClassifier) FeatureImportance() []float64 {
	if imp, ok := c.Base.(FeatureImporter); ok {
		return imp.FeatureImportance()
	}
	return nil
}
