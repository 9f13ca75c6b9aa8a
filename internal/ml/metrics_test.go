package ml

import (
	"math"
	"testing"
)

func TestAccuracy(t *testing.T) {
	tests := []struct {
		name   string
		scores []float64
		y      []int
		want   float64
	}{
		{"perfect", []float64{0.9, 0.1}, []int{1, 0}, 1},
		{"inverted", []float64{0.1, 0.9}, []int{1, 0}, 0},
		{"half", []float64{0.9, 0.9}, []int{1, 0}, 0.5},
		{"threshold boundary counts as positive", []float64{0.5}, []int{1}, 1},
		{"empty", nil, nil, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Accuracy(tt.scores, tt.y, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Accuracy = %v, want %v", got, tt.want)
			}
		})
	}
	if _, err := Accuracy([]float64{0.5}, nil, 0.5); err == nil {
		t.Error("expected shape error")
	}
}

func TestAUC(t *testing.T) {
	tests := []struct {
		name   string
		scores []float64
		y      []int
		want   float64
	}{
		{"perfect ranking", []float64{0.1, 0.2, 0.8, 0.9}, []int{0, 0, 1, 1}, 1},
		{"inverted ranking", []float64{0.9, 0.8, 0.2, 0.1}, []int{0, 0, 1, 1}, 0},
		{"random ties", []float64{0.5, 0.5, 0.5, 0.5}, []int{0, 1, 0, 1}, 0.5},
		{"single class", []float64{0.1, 0.9}, []int{1, 1}, 0.5},
		{"partial", []float64{0.1, 0.6, 0.4, 0.9}, []int{0, 0, 1, 1}, 0.75},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := AUC(tt.scores, tt.y)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("AUC = %v, want %v", got, tt.want)
			}
		})
	}
	if _, err := AUC([]float64{0.5}, nil); err == nil {
		t.Error("expected shape error")
	}
}
