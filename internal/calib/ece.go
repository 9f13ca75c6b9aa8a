package calib

import (
	"fmt"
	"math"
)

// DefaultECEBins is the bin count used by the paper's disparity
// experiment (Figure 6 uses ECE with 15 bins).
const DefaultECEBins = 15

// ECE computes the Expected Calibration Error (Appendix A.1):
// scores are bucketed into bins equal-width partitions of [0,1] and
// the population-weighted |o(B_m) − e(B_m)| is accumulated.
//
// Scores exactly equal to 1 fall in the last bin. Empty bins
// contribute nothing. ECE of empty input is 0. bins must be positive.
func ECE(scores []float64, labels []int, bins int) (float64, error) {
	if err := checkPair(scores, labels); err != nil {
		return 0, err
	}
	if bins <= 0 {
		return 0, fmt.Errorf("calib: ECE bin count must be positive, got %d", bins)
	}
	if len(scores) == 0 {
		return 0, nil
	}
	count := make([]int, bins)
	sumScore := make([]float64, bins)
	sumLabel := make([]float64, bins)
	for i, s := range scores {
		b := binOf(s, bins)
		count[b]++
		sumScore[b] += s
		sumLabel[b] += float64(label01(labels[i]))
	}
	var ece float64
	n := float64(len(scores))
	for b := 0; b < bins; b++ {
		if count[b] == 0 {
			continue
		}
		c := float64(count[b])
		ece += (c / n) * math.Abs(sumLabel[b]/c-sumScore[b]/c)
	}
	return ece, nil
}

// binOf maps a score to its bin, clamping out-of-range scores into
// the terminal bins so that slightly-out-of-range classifier output
// (e.g. 1+1e-16) does not panic.
func binOf(s float64, bins int) int {
	b := int(s * float64(bins))
	if b < 0 {
		return 0
	}
	if b >= bins {
		return bins - 1
	}
	return b
}
