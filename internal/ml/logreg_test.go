package ml

import (
	"math"
	"testing"
)

func TestLogRegCalibratedOnTrain(t *testing.T) {
	// A converged unregularized logistic regression satisfies
	// Σ(s−y) ≈ 0 on its training data (first-order condition of the
	// intercept). This near-zero overall deviation is the phenomenon
	// §5.2 exploits: globally calibrated, locally not.
	X, y := noisyData(400, 11)
	m := NewLogReg()
	m.Epochs = 2000
	m.L2 = 0
	if err := m.Fit(X, y, nil); err != nil {
		t.Fatal(err)
	}
	scores, err := m.PredictProba(X)
	if err != nil {
		t.Fatal(err)
	}
	var dev float64
	for i, s := range scores {
		dev += s - float64(y[i])
	}
	if math.Abs(dev)/float64(len(y)) > 0.01 {
		t.Errorf("mean training deviation = %v, want ≈ 0", dev/float64(len(y)))
	}
}

func TestLogRegHyperparameterValidation(t *testing.T) {
	X, y := separableData(10, 1)
	m := NewLogReg()
	m.Epochs = 0
	if err := m.Fit(X, y, nil); err == nil {
		t.Error("expected error for zero epochs")
	}
	m = NewLogReg()
	m.LearningRate = -1
	if err := m.Fit(X, y, nil); err == nil {
		t.Error("expected error for negative learning rate")
	}
}

func TestLogRegCoefficients(t *testing.T) {
	m := NewLogReg()
	if _, _, err := m.Coefficients(); err == nil {
		t.Error("expected ErrNotFitted")
	}
	X, y := separableData(100, 7)
	if err := m.Fit(X, y, nil); err != nil {
		t.Fatal(err)
	}
	w, _, err := m.Coefficients()
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 2 {
		t.Fatalf("got %d coefficients, want 2", len(w))
	}
	// Both features point toward class 1 in the fixture.
	if w[0] <= 0 || w[1] <= 0 {
		t.Errorf("coefficients = %v, want both positive", w)
	}
	// Mutating the returned slice must not affect the model.
	w[0] = 999
	w2, _, _ := m.Coefficients()
	if w2[0] == 999 {
		t.Error("Coefficients returned internal state")
	}
}

func TestLogRegFeatureImportance(t *testing.T) {
	m := NewLogReg()
	if imp := m.FeatureImportance(); imp != nil {
		t.Error("unfitted importance should be nil")
	}
	// x1 carries all the signal; x2 is noise.
	X, y := separableData(200, 8)
	for i := range X {
		X[i][1] = float64(i%7) - 3 // decorrelate feature 2 from labels
	}
	if err := m.Fit(X, y, nil); err != nil {
		t.Fatal(err)
	}
	imp := m.FeatureImportance()
	if len(imp) != 2 {
		t.Fatalf("importance length = %d", len(imp))
	}
	var sum float64
	for _, v := range imp {
		if v < 0 {
			t.Errorf("negative importance %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("importances sum to %v, want 1", sum)
	}
	if imp[0] < imp[1] {
		t.Errorf("signal feature importance %v < noise feature %v", imp[0], imp[1])
	}
}

func TestLogRegConstantColumn(t *testing.T) {
	// A constant column must not produce NaNs.
	X := [][]float64{{1, 5}, {2, 5}, {3, 5}, {4, 5}}
	y := []int{0, 0, 1, 1}
	m := NewLogReg()
	if err := m.Fit(X, y, nil); err != nil {
		t.Fatal(err)
	}
	scores, err := m.PredictProba(X)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scores {
		if math.IsNaN(s) {
			t.Fatal("NaN score with constant column")
		}
	}
}

// Scoring one row — every Index.Score and every AppendBatch record —
// allocates only the output slice, at any Workers setting: the dense
// design stays on the caller's stack and the row is scored inline.
func TestPredictProbaSingleRowAllocs(t *testing.T) {
	X, y := noisyData(50, 3)
	for _, workers := range []int{0, 1, 4} {
		m := NewLogReg()
		m.Epochs = 5
		m.Workers = workers
		if err := m.Fit(X, y, nil); err != nil {
			t.Fatal(err)
		}
		row := X[:1]
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := m.PredictProba(row); err != nil {
				t.Fatal(err)
			}
		}); allocs != 1 {
			t.Errorf("Workers %d: PredictProba of one row made %v allocations, want 1 (the output)", workers, allocs)
		}
	}
}

func TestSigmoidStability(t *testing.T) {
	tests := []struct {
		z    float64
		want float64
	}{
		{0, 0.5},
		{1000, 1},
		{-1000, 0},
	}
	for _, tt := range tests {
		got := sigmoid(tt.z)
		if math.IsNaN(got) || math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("sigmoid(%v) = %v, want %v", tt.z, got, tt.want)
		}
	}
	// Symmetry: sigmoid(z) + sigmoid(-z) == 1.
	for _, z := range []float64{0.1, 1, 5, 37} {
		if s := sigmoid(z) + sigmoid(-z); math.Abs(s-1) > 1e-12 {
			t.Errorf("sigmoid(%v)+sigmoid(-%v) = %v, want 1", z, z, s)
		}
	}
}

func TestStandardizer(t *testing.T) {
	X := [][]float64{{1, 10}, {3, 10}, {5, 10}}
	w := []float64{1, 1, 1}
	s, err := FitStandardizer(X, w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Mean[0]-3) > 1e-12 {
		t.Errorf("mean = %v, want 3", s.Mean[0])
	}
	// Constant column keeps scale 1.
	if s.Scale[1] != 1 {
		t.Errorf("constant column scale = %v, want 1", s.Scale[1])
	}
	Z := s.Transform(X)
	var mean float64
	for _, row := range Z {
		mean += row[0]
	}
	if math.Abs(mean) > 1e-12 {
		t.Errorf("standardized column mean = %v, want 0", mean/3)
	}
	if Z[0][1] != 0 {
		t.Errorf("constant column should be centered to 0, got %v", Z[0][1])
	}
}

func TestStandardizerWeighted(t *testing.T) {
	// Weight 3 on the value 10 pulls the mean toward it.
	X := [][]float64{{0}, {10}}
	s, err := FitStandardizer(X, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Mean[0]-7.5) > 1e-12 {
		t.Errorf("weighted mean = %v, want 7.5", s.Mean[0])
	}
}

func TestStandardizerErrors(t *testing.T) {
	if _, err := FitStandardizer(nil, nil); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := FitStandardizer([][]float64{{1}, {1, 2}}, []float64{1, 1}); err == nil {
		t.Error("expected error for ragged input")
	}
	if _, err := FitStandardizer([][]float64{{1}}, []float64{0}); err == nil {
		t.Error("expected error for zero weight sum")
	}
}
