// Package calib implements the calibration metrics of the paper:
// model-level calibration (ratio and absolute forms, §2.2), Expected
// Calibration Error over score bins (ECE, Appendix A.1), and Expected
// Neighborhood Calibration Error over spatial groups (ENCE,
// Definition 3).
//
// Conventions follow the paper: e(·) is the mean predicted confidence
// score, o(·) the true fraction of positive instances. A perfectly
// calibrated model has e/o = 1 and |e−o| = 0. The absolute form is
// preferred throughout because it is robust to empty and all-negative
// groups (no division by zero).
package calib

import (
	"errors"
	"fmt"
	"math"
)

// ErrLengthMismatch is returned when scores and labels (or groups)
// have different lengths.
var ErrLengthMismatch = errors.New("calib: scores, labels and groups must have equal length")

// checkPair validates the common (scores, labels) precondition.
func checkPair(scores []float64, labels []int) error {
	if len(scores) != len(labels) {
		return fmt.Errorf("%w: %d scores vs %d labels", ErrLengthMismatch, len(scores), len(labels))
	}
	return nil
}

// MeanScore returns e(h): the mean confidence score, or 0 for empty
// input.
func MeanScore(scores []float64) float64 {
	if len(scores) == 0 {
		return 0
	}
	var sum float64
	for _, s := range scores {
		sum += s
	}
	return sum / float64(len(scores))
}

// PositiveRate returns o(h): the fraction of positive labels, or 0
// for empty input. Any nonzero label counts as positive.
func PositiveRate(labels []int) float64 {
	if len(labels) == 0 {
		return 0
	}
	pos := 0
	for _, y := range labels {
		if y != 0 {
			pos++
		}
	}
	return float64(pos) / float64(len(labels))
}

// Ratio returns the calibration ratio e(h)/o(h) of Eq. 2. When the
// positive rate is zero the ratio is undefined; the second return
// value is false in that case. A well-calibrated model has ratio 1.
func Ratio(scores []float64, labels []int) (ratio float64, ok bool) {
	o := PositiveRate(labels)
	if o == 0 {
		return 0, false
	}
	return MeanScore(scores) / o, true
}

// MiscalAbs returns the absolute miscalibration |e(h) − o(h)| (§2.2,
// the form used for all split decisions and evaluations in the paper).
// Empty input yields 0.
func MiscalAbs(scores []float64, labels []int) float64 {
	return math.Abs(MeanScore(scores) - PositiveRate(labels))
}

func label01(y int) int {
	if y != 0 {
		return 1
	}
	return 0
}
