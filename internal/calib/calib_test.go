package calib

import (
	"math"
	"testing"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanScore(t *testing.T) {
	tests := []struct {
		name   string
		scores []float64
		want   float64
	}{
		{"empty", nil, 0},
		{"single", []float64{0.7}, 0.7},
		{"several", []float64{0.2, 0.4, 0.6}, 0.4},
		{"zeros", []float64{0, 0}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := MeanScore(tt.scores); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("MeanScore = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestPositiveRate(t *testing.T) {
	tests := []struct {
		name   string
		labels []int
		want   float64
	}{
		{"empty", nil, 0},
		{"all positive", []int{1, 1, 1}, 1},
		{"none", []int{0, 0}, 0},
		{"mixed", []int{1, 0, 1, 0}, 0.5},
		{"nonzero counts as positive", []int{2, -1, 0}, 2.0 / 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := PositiveRate(tt.labels); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("PositiveRate = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestRatioPaperExample(t *testing.T) {
	// The paper's Figure 1b example: Σ scores = 5.2 over 11 people with
	// 7 positives gives calibration ratio ≈ 0.742 (Eq. 2).
	scores := []float64{0.2, 0.3, 0.4, 0.4, 0.5, 0.5, 0.5, 0.6, 0.6, 0.6, 0.6}
	var sum float64
	for _, s := range scores {
		sum += s
	}
	if !almostEqual(sum, 5.2, 1e-9) {
		t.Fatalf("test fixture broken: Σ scores = %v, want 5.2", sum)
	}
	labels := []int{1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0}
	r, ok := Ratio(scores, labels)
	if !ok {
		t.Fatal("Ratio reported undefined")
	}
	if !almostEqual(r, 5.2/7.0, 1e-9) {
		t.Errorf("Ratio = %v, want %v", r, 5.2/7.0)
	}
}

func TestRatioUndefined(t *testing.T) {
	if _, ok := Ratio([]float64{0.5}, []int{0}); ok {
		t.Error("Ratio with zero positive rate should be undefined")
	}
}

func TestMiscalAbs(t *testing.T) {
	tests := []struct {
		name   string
		scores []float64
		labels []int
		want   float64
	}{
		{"perfect", []float64{0.5, 0.5}, []int{1, 0}, 0},
		{"overconfident", []float64{0.9, 0.9}, []int{1, 0}, 0.4},
		{"underconfident", []float64{0.1, 0.1}, []int{1, 1}, 0.9},
		{"empty", nil, nil, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := MiscalAbs(tt.scores, tt.labels); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("MiscalAbs = %v, want %v", got, tt.want)
			}
		})
	}
}
