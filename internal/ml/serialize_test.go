package ml

import (
	"math"
	"testing"

	"fairindex/internal/binenc"
)

// trainingData returns a small deterministic binary problem.
func trainingData() ([][]float64, []int) {
	X := make([][]float64, 60)
	y := make([]int, 60)
	for i := range X {
		a := float64(i%10) / 10
		b := float64((i*7)%13) / 13
		X[i] = []float64{a, b, a*b + 0.1}
		if a+b > 0.9 {
			y[i] = 1
		}
	}
	return X, y
}

func TestClassifierSerializeRoundTrip(t *testing.T) {
	X, y := trainingData()
	for _, kind := range AllModelKinds {
		t.Run(kind.String(), func(t *testing.T) {
			clf, err := New(kind)
			if err != nil {
				t.Fatal(err)
			}
			if err := clf.Fit(X, y, nil); err != nil {
				t.Fatal(err)
			}
			want, err := clf.PredictProba(X)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := MarshalClassifier(clf)
			if err != nil {
				t.Fatal(err)
			}
			back, canonical, err := UnmarshalClassifier(blob)
			if err != nil {
				t.Fatal(err)
			}
			if !canonical {
				t.Error("marshaled blob decodes as non-canonical")
			}
			if back.Name() != clf.Name() {
				t.Errorf("name = %q, want %q", back.Name(), clf.Name())
			}
			got, err := back.PredictProba(X)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("row %d: score %v != %v after round trip", i, got[i], want[i])
				}
			}
		})
	}
}

func TestCalibratorSerializeRoundTrip(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.35, 0.5, 0.62, 0.7, 0.85, 0.9, 0.95, 0.3}
	labels := []int{0, 0, 0, 1, 0, 1, 1, 1, 1, 0}
	for _, tt := range []struct {
		name string
		cal  ScoreCalibrator
	}{
		{"platt", NewPlatt()},
		{"isotonic", NewIsotonic()},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.cal.Fit(scores, labels, nil); err != nil {
				t.Fatal(err)
			}
			want, err := tt.cal.Apply(scores)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := MarshalCalibrator(tt.cal)
			if err != nil {
				t.Fatal(err)
			}
			back, canonical, err := UnmarshalCalibrator(blob)
			if err != nil {
				t.Fatal(err)
			}
			if !canonical {
				t.Error("marshaled blob decodes as non-canonical")
			}
			got, err := back.Apply(scores)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("score %d: %v != %v after round trip", i, got[i], want[i])
				}
			}
		})
	}
}

func TestSerializeUnfitted(t *testing.T) {
	if _, err := MarshalClassifier(NewLogReg()); err == nil {
		t.Error("expected error for unfitted logreg")
	}
	if _, err := MarshalCalibrator(NewPlatt()); err == nil {
		t.Error("expected error for unfitted platt")
	}
}

func TestDeserializeCorrupt(t *testing.T) {
	X, y := trainingData()
	clf := NewLogReg()
	if err := clf.Fit(X, y, nil); err != nil {
		t.Fatal(err)
	}
	blob, err := MarshalClassifier(clf)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{nil, {0xFF}, blob[:len(blob)/2], {9, 9, 9}} {
		if _, _, err := UnmarshalClassifier(bad); err == nil {
			t.Errorf("expected error for corrupt input %v", bad)
		}
	}
	if _, _, err := UnmarshalCalibrator([]byte{0x7F}); err == nil {
		t.Error("expected error for unknown calibrator tag")
	}
}

// TestDeserializeNonCanonical pins the canonical flag's negatives: a
// trailing byte, a padded tag, and a padded inner blob inside a
// calibrated wrapper all decode into a working model, reported as not
// what MarshalClassifier writes; a padded calibrator tag likewise.
func TestDeserializeNonCanonical(t *testing.T) {
	X, y := trainingData()
	clf := NewCalibrated(NewDecisionTree())
	if err := clf.Fit(X, y, nil); err != nil {
		t.Fatal(err)
	}
	blob, err := MarshalClassifier(clf)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := MarshalClassifier(clf.Base)
	if err != nil {
		t.Fatal(err)
	}
	platt, err := MarshalCalibrator(clf.platt)
	if err != nil {
		t.Fatal(err)
	}
	// The inner blob with its one-byte tag padded to two bytes.
	paddedInner := append([]byte{inner[0] | 0x80, 0}, inner[1:]...)
	for name, bad := range map[string][]byte{
		"trailing byte": append(append([]byte(nil), blob...), 0),
		"padded tag":    append([]byte{tagCalibrated | 0x80, 0}, blob[1:]...),
		"padded inner":  append(binenc.AppendBytes([]byte{tagCalibrated}, paddedInner), platt...),
	} {
		back, canonical, err := UnmarshalClassifier(bad)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if canonical {
			t.Errorf("%s: decodes as canonical", name)
		}
		if _, err := back.PredictProba(X); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, canonical, err := UnmarshalCalibrator(append([]byte{tagPlatt | 0x80, 0}, platt[1:]...)); err != nil || canonical {
		t.Errorf("padded calibrator tag: canonical %v, err %v", canonical, err)
	}
}

func TestSerializedScoresStayFinite(t *testing.T) {
	X, y := trainingData()
	clf, err := New(ModelNaiveBayes)
	if err != nil {
		t.Fatal(err)
	}
	if err := clf.Fit(X, y, nil); err != nil {
		t.Fatal(err)
	}
	blob, err := MarshalClassifier(clf)
	if err != nil {
		t.Fatal(err)
	}
	back, _, err := UnmarshalClassifier(blob)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := back.PredictProba(X)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scores {
		if math.IsNaN(s) || s < 0 || s > 1 {
			t.Fatalf("score %d = %v out of [0,1]", i, s)
		}
	}
}
