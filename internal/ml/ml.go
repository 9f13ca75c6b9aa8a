// Package ml implements the machine-learning substrate the paper
// trains on: binary classifiers producing confidence scores in [0,1]
// (logistic regression, CART decision tree, Gaussian naive Bayes —
// the three model families of §5.3.1), all supporting per-instance
// sample weights so the reweighting baseline (§5.1) can be expressed,
// plus accuracy metrics and feature standardization.
//
// All classifiers are deterministic for fixed inputs; there is no
// hidden randomness.
package ml

import (
	"errors"
	"fmt"
)

// Classifier is a binary classifier trained on a design matrix. The
// confidence scores returned by PredictProba estimate
// P(y = 1 | x) and always lie in [0, 1].
type Classifier interface {
	// Fit trains on rows X with labels y (0/1). w holds optional
	// per-instance sample weights; nil means uniform. Fit must be
	// callable repeatedly; each call discards previous state.
	Fit(X [][]float64, y []int, w []float64) error
	// PredictProba returns a confidence score per row of X.
	PredictProba(X [][]float64) ([]float64, error)
	// Name identifies the model family, e.g. "logreg".
	Name() string
}

// ScoreCalibrator is a one-dimensional score→probability calibrator
// (Platt scaling or isotonic regression). It is the shared surface of
// the post-processing mitigation family.
type ScoreCalibrator interface {
	// Fit learns the mapping from raw scores and labels, optionally
	// weighted (nil = uniform).
	Fit(scores []float64, labels []int, w []float64) error
	// Apply maps raw scores to calibrated probabilities.
	Apply(scores []float64) ([]float64, error)
	// Calibrate maps one raw score, bit-equal to Apply's output for
	// that score, without allocating.
	Calibrate(score float64) (float64, error)
}

// FeatureImporter is implemented by classifiers that can attribute
// their decisions to input columns (used by the Figure 9 heatmaps).
// Importances are non-negative and sum to 1 (or are all zero for a
// degenerate fit).
type FeatureImporter interface {
	FeatureImportance() []float64
}

// Common training errors.
var (
	ErrNoData     = errors.New("ml: empty training set")
	ErrShape      = errors.New("ml: inconsistent matrix shape")
	ErrNotFitted  = errors.New("ml: classifier is not fitted")
	ErrBadWeights = errors.New("ml: invalid sample weights")
)

// validateFit checks the shared Fit preconditions and returns the
// effective weight slice (uniform if w is nil). The weights come from
// a scratch of their own, never pooled, so they may outlive the call.
func validateFit(X [][]float64, y []int, w []float64) ([]float64, error) {
	if _, err := checkMatrix(X, y); err != nil {
		return nil, err
	}
	return effectiveWeights(len(X), w, new(fitScratch))
}

// validatePredict checks the shared PredictProba preconditions.
func validatePredict(X [][]float64, wantCols int) error {
	for i, row := range X {
		if len(row) != wantCols {
			return fmt.Errorf("%w: row %d has %d columns, model was fitted on %d", ErrShape, i, len(row), wantCols)
		}
	}
	return nil
}

// label01 normalizes a label to {0,1}.
func label01(y int) float64 {
	if y != 0 {
		return 1
	}
	return 0
}
