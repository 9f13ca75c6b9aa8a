package ml

import (
	"fmt"
	"sort"
)

// DefaultThreshold converts confidence scores to hard labels.
const DefaultThreshold = 0.5

// Accuracy returns the fraction of instances whose thresholded score
// matches the label.
func Accuracy(scores []float64, y []int, threshold float64) (float64, error) {
	if len(scores) != len(y) {
		return 0, fmt.Errorf("%w: %d scores vs %d labels", ErrShape, len(scores), len(y))
	}
	if len(scores) == 0 {
		return 0, nil
	}
	correct := 0
	for i, s := range scores {
		pred := 0.0
		if s >= threshold {
			pred = 1
		}
		if pred == label01(y[i]) {
			correct++
		}
	}
	return float64(correct) / float64(len(scores)), nil
}

// AUC returns the area under the ROC curve via the rank statistic
// (probability a random positive outranks a random negative; ties
// count half). Returns 0.5 when either class is absent.
func AUC(scores []float64, y []int) (float64, error) {
	if len(scores) != len(y) {
		return 0, fmt.Errorf("%w: %d scores vs %d labels", ErrShape, len(scores), len(y))
	}
	type pair struct {
		s float64
		y float64
	}
	ps := make([]pair, len(scores))
	var nPos, nNeg float64
	for i := range scores {
		ps[i] = pair{scores[i], label01(y[i])}
		if ps[i].y == 1 {
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0.5, nil
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].s < ps[b].s })
	// Average ranks with tie handling.
	var rankSumPos float64
	i := 0
	for i < len(ps) {
		j := i
		for j < len(ps) && ps[j].s == ps[i].s {
			j++
		}
		avgRank := float64(i+j+1) / 2 // ranks are 1-based
		for k := i; k < j; k++ {
			if ps[k].y == 1 {
				rankSumPos += avgRank
			}
		}
		i = j
	}
	return (rankSumPos - nPos*(nPos+1)/2) / (nPos * nNeg), nil
}
