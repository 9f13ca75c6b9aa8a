package calib

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestECEValidation(t *testing.T) {
	if _, err := ECE([]float64{0.5}, []int{1, 0}, 10); err == nil {
		t.Error("expected length mismatch error")
	}
	if _, err := ECE([]float64{0.5}, []int{1}, 0); err == nil {
		t.Error("expected bin count error")
	}
	if _, err := ECE(nil, nil, 5); err != nil {
		t.Errorf("empty input should be fine: %v", err)
	}
}

func TestECEPerfectlyCalibratedBins(t *testing.T) {
	// Construct data where each bin's mean score equals its positive
	// rate exactly: ECE must be 0.
	var scores []float64
	var labels []int
	// Bin [0.6,0.8) with 5 instances at 0.7 and 3.5... must use integer
	// positives: 10 instances at 0.7 with 7 positive.
	for i := 0; i < 10; i++ {
		scores = append(scores, 0.7)
		if i < 7 {
			labels = append(labels, 1)
		} else {
			labels = append(labels, 0)
		}
	}
	got, err := ECE(scores, labels, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 0, 1e-12) {
		t.Errorf("ECE = %v, want 0", got)
	}
}

func TestECEKnownValue(t *testing.T) {
	// Two bins with 2 instances each over bins=2.
	// Bin 0: scores 0.2, 0.4 (mean 0.3), labels 1,1 (rate 1.0) -> |1-0.3| = 0.7, weight 0.5
	// Bin 1: scores 0.6, 0.8 (mean 0.7), labels 0,0 (rate 0.0) -> 0.7, weight 0.5
	scores := []float64{0.2, 0.4, 0.6, 0.8}
	labels := []int{1, 1, 0, 0}
	got, err := ECE(scores, labels, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 0.7, 1e-12) {
		t.Errorf("ECE = %v, want 0.7", got)
	}
}

func TestECEScoreOneGoesToLastBin(t *testing.T) {
	got, err := ECE([]float64{1.0}, []int{1}, 15)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 0, 1e-12) {
		t.Errorf("ECE = %v, want 0 (score 1, label 1)", got)
	}
}

func TestECEBounds(t *testing.T) {
	// Property: 0 <= ECE <= 1 for scores in [0,1].
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int(n%50) + 1
		scores := make([]float64, m)
		labels := make([]int, m)
		for i := range scores {
			scores[i] = rng.Float64()
			labels[i] = rng.Intn(2)
		}
		e, err := ECE(scores, labels, 15)
		if err != nil {
			return false
		}
		return e >= 0 && e <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestECELowerBoundsOverallMiscal(t *testing.T) {
	// Property: binned ECE >= |e - o| overall (triangle inequality over
	// bins, same structure as Theorem 1 over neighborhoods).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := rng.Intn(80) + 1
		scores := make([]float64, m)
		labels := make([]int, m)
		for i := range scores {
			scores[i] = rng.Float64()
			labels[i] = rng.Intn(2)
		}
		e, err := ECE(scores, labels, 10)
		if err != nil {
			return false
		}
		return e+1e-12 >= MiscalAbs(scores, labels)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBinOfClamping(t *testing.T) {
	if got := binOf(-0.1, 10); got != 0 {
		t.Errorf("binOf(-0.1) = %d, want 0", got)
	}
	if got := binOf(1.0+1e-15, 10); got != 9 {
		t.Errorf("binOf(1+eps) = %d, want 9", got)
	}
	if got := binOf(math.Nextafter(1, 0), 10); got != 9 {
		t.Errorf("binOf(just under 1) = %d, want 9", got)
	}
}
