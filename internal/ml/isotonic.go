package ml

import (
	"fmt"
	"sort"
)

// Isotonic is an isotonic-regression calibrator fitted with the
// pool-adjacent-violators (PAV) algorithm: a monotone step function
// mapping raw confidence scores to calibrated probabilities. It is
// the standard non-parametric alternative to Platt scaling and the
// second post-processing option of the mitigation baseline.
type Isotonic struct {
	// breakpoints and values describe the fitted step function:
	// scores ≤ breakpoints[i] map to values[i] (with linear
	// interpolation between adjacent breakpoints for stability).
	breakpoints []float64
	values      []float64
	fitted      bool
}

// NewIsotonic returns an empty calibrator.
func NewIsotonic() *Isotonic { return &Isotonic{} }

// Fit learns the monotone mapping from raw scores to labels,
// optionally weighted (nil = uniform).
func (iso *Isotonic) Fit(scores []float64, labels []int, w []float64) error {
	if len(scores) == 0 {
		return ErrNoData
	}
	if len(labels) != len(scores) {
		return fmt.Errorf("%w: %d scores vs %d labels", ErrShape, len(scores), len(labels))
	}
	if w != nil && len(w) != len(scores) {
		return fmt.Errorf("%w: %d weights for %d scores", ErrBadWeights, len(w), len(scores))
	}
	type point struct {
		x, y, w float64
	}
	pts := make([]point, len(scores))
	var totalW float64
	for i, s := range scores {
		wi := 1.0
		if w != nil {
			wi = w[i]
			if wi < 0 {
				return fmt.Errorf("%w: negative weight %v at %d", ErrBadWeights, wi, i)
			}
		}
		totalW += wi
		pts[i] = point{x: s, y: label01(labels[i]), w: wi}
	}
	if totalW <= 0 {
		return fmt.Errorf("%w: weights sum to %v", ErrBadWeights, totalW)
	}
	sort.Slice(pts, func(a, b int) bool { return pts[a].x < pts[b].x })

	// Pool adjacent violators over the sorted points.
	type block struct {
		sumWY, sumW float64
		maxX        float64
	}
	var stack []block
	for _, p := range pts {
		if p.w == 0 {
			continue
		}
		b := block{sumWY: p.w * p.y, sumW: p.w, maxX: p.x}
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			if top.sumWY/top.sumW <= b.sumWY/b.sumW {
				break
			}
			b.sumWY += top.sumWY
			b.sumW += top.sumW
			stack = stack[:len(stack)-1]
		}
		stack = append(stack, b)
	}
	if len(stack) == 0 {
		return fmt.Errorf("%w: all weights zero", ErrBadWeights)
	}
	iso.breakpoints = make([]float64, len(stack))
	iso.values = make([]float64, len(stack))
	for i, b := range stack {
		iso.breakpoints[i] = b.maxX
		iso.values[i] = b.sumWY / b.sumW
	}
	iso.fitted = true
	return nil
}

// Apply maps raw scores through the fitted step function, clamping
// outside the observed range.
func (iso *Isotonic) Apply(scores []float64) ([]float64, error) {
	if !iso.fitted {
		return nil, ErrNotFitted
	}
	out := make([]float64, len(scores))
	for i, s := range scores {
		out[i] = iso.at(s)
	}
	return out, nil
}

// Calibrate maps one raw score through the fitted step function, as
// Apply does.
func (iso *Isotonic) Calibrate(score float64) (float64, error) {
	if !iso.fitted {
		return 0, ErrNotFitted
	}
	return iso.at(score), nil
}

// at evaluates the step function at one score.
func (iso *Isotonic) at(s float64) float64 {
	n := len(iso.breakpoints)
	// Index of the first breakpoint >= s.
	j := sort.SearchFloat64s(iso.breakpoints, s)
	if j >= n {
		return iso.values[n-1]
	}
	return iso.values[j]
}
