package ml

import (
	"math"
	"math/rand"
	"testing"
)

// Shape knobs of a FuzzLogRegKernels input, one bit each.
const (
	fuzzConstCol   = 1 << iota // column 0 of the base block is constant
	fuzzSignedZero             // about a third of the features are +0 or -0
	fuzzZeroWeight             // about a third of the rows weigh 0
	fuzzOneClass               // every label is 1
	fuzzNilWeights             // train with uniform (nil) weights
	fuzzBadShape               // one base row is one column short
	fuzzBadLabels              // one label too few
	fuzzBadWeights             // a negative weight, or all zero with fuzzZeroWeight
)

// FuzzLogRegKernels holds the one training kernel and the one scoring
// kernel to their retained references, bit for bit: on random small
// dense designs Fit and PredictProba (and the grouped entry points on
// the same rows with no shared block) against FitReference and
// PredictProbaReference; on random factorized designs FitGrouped and
// PredictProbaGrouped against their reference twins. Both run at
// Workers 1 and 2 (rows ≥ 248 selects a design big enough for the
// parallel path), and whatever one side refuses — a ragged row, a
// label count, a negative or all-zero weight — the other refuses with
// the same error.
func FuzzLogRegKernels(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(3), uint8(4), uint8(2), uint8(6), uint8(0))
	f.Add(int64(2), uint8(9), uint8(2), uint8(3), uint8(3), uint8(4), uint8(fuzzConstCol))
	f.Add(int64(3), uint8(10), uint8(3), uint8(2), uint8(2), uint8(5), uint8(fuzzSignedZero))
	f.Add(int64(4), uint8(14), uint8(2), uint8(3), uint8(1), uint8(5), uint8(fuzzZeroWeight))
	f.Add(int64(5), uint8(8), uint8(4), uint8(2), uint8(2), uint8(3), uint8(fuzzOneClass|fuzzNilWeights))
	f.Add(int64(6), uint8(7), uint8(2), uint8(1), uint8(0), uint8(4), uint8(0)) // one group, empty shared row
	f.Add(int64(7), uint8(6), uint8(0), uint8(3), uint8(2), uint8(3), uint8(0)) // no base columns
	f.Add(int64(12), uint8(251), uint8(3), uint8(3), uint8(2), uint8(4), uint8(fuzzZeroWeight))
	f.Add(int64(8), uint8(6), uint8(3), uint8(2), uint8(2), uint8(3), uint8(fuzzBadShape))
	f.Add(int64(9), uint8(6), uint8(3), uint8(2), uint8(2), uint8(3), uint8(fuzzBadLabels))
	f.Add(int64(10), uint8(6), uint8(3), uint8(2), uint8(2), uint8(3), uint8(fuzzBadWeights))
	f.Add(int64(11), uint8(6), uint8(3), uint8(2), uint8(2), uint8(3), uint8(fuzzBadWeights|fuzzZeroWeight))
	f.Fuzz(func(t *testing.T, seed int64, rows, bcols, groups, scols, epochs, knobs uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(rows%24)
		if rows >= 248 {
			n = 2*minChunk + int(rows) // the kernels' parallel path at Workers 2
		}
		d, y, w := randGrouped(rng, n, int(bcols%5), 1+int(groups%4), int(scols%4))
		perturb(rng, d, y, w, knobs)
		if knobs&fuzzNilWeights != 0 {
			w = nil
		}
		hyper := func(workers int) *LogReg {
			m := NewLogReg()
			m.Epochs = 1 + int(epochs%12)
			m.Workers = workers
			return m
		}
		X := materialize(d)
		yFit := y
		if knobs&fuzzBadLabels != 0 {
			yFit = y[:n-1]
		}

		// Dense: the adapters against the dense references.
		ref := hyper(1)
		refErr := ref.FitReference(X, yFit, w)
		var refScores []float64
		if refErr == nil {
			var err error
			if refScores, err = ref.PredictProbaReference(X); err != nil {
				t.Fatalf("PredictProbaReference: %v", err)
			}
		}
		for _, workers := range []int{1, 2} {
			m := hyper(workers)
			err := m.Fit(X, yFit, w)
			if !sameRefusal(err, refErr) {
				t.Fatalf("Fit workers %d: error %v, FitReference error %v", workers, err, refErr)
			}
			if err != nil {
				continue
			}
			sameModelBits(t, m, ref, "Fit")
			scores, err := m.PredictProba(X)
			if err != nil {
				t.Fatalf("PredictProba workers %d: %v", workers, err)
			}
			sameBits(t, scores, refScores, "PredictProba scores")

			// The same rows as a design with no shared block: the
			// grouped entry points run the dense arithmetic too.
			dense := &GroupedDesign{Base: X}
			g := hyper(workers)
			if err := g.FitGrouped(dense, yFit, w); err != nil {
				t.Fatalf("FitGrouped without a shared block, workers %d: %v", workers, err)
			}
			sameModelBits(t, g, ref, "FitGrouped without a shared block")
			if scores, err = g.PredictProbaGrouped(dense); err != nil {
				t.Fatalf("PredictProbaGrouped without a shared block, workers %d: %v", workers, err)
			}
			sameBits(t, scores, refScores, "PredictProbaGrouped without a shared block")
		}

		// Factorized: the grouped kernels against their twins. A
		// ragged base row (fuzzBadShape) lives in both forms.
		gref := hyper(1)
		grefErr := gref.FitGroupedReference(d, yFit, w)
		var grefScores []float64
		if grefErr == nil {
			var err error
			if grefScores, err = gref.PredictProbaGroupedReference(d); err != nil {
				t.Fatalf("PredictProbaGroupedReference: %v", err)
			}
		}
		for _, workers := range []int{1, 2} {
			m := hyper(workers)
			err := m.FitGrouped(d, yFit, w)
			if !sameRefusal(err, grefErr) {
				t.Fatalf("FitGrouped workers %d: error %v, FitGroupedReference error %v", workers, err, grefErr)
			}
			if err != nil {
				continue
			}
			sameModelBits(t, m, gref, "FitGrouped")
			scores, err := m.PredictProbaGrouped(d)
			if err != nil {
				t.Fatalf("PredictProbaGrouped workers %d: %v", workers, err)
			}
			sameBits(t, scores, grefScores, "PredictProbaGrouped scores")
		}
	})
}

// perturb applies the input's shape knobs to a random design in place.
func perturb(rng *rand.Rand, d *GroupedDesign, y []int, w []float64, knobs uint8) {
	n, bcols := d.Rows(), d.BaseCols()
	for i, row := range d.Base {
		if knobs&fuzzConstCol != 0 && bcols > 0 {
			row[0] = 2.5
		}
		if knobs&fuzzSignedZero != 0 {
			for j := range row {
				switch rng.Intn(3) {
				case 0:
					row[j] = 0
				case 1:
					row[j] = math.Copysign(0, -1)
				}
			}
		}
		if knobs&fuzzZeroWeight != 0 && rng.Intn(3) == 0 {
			w[i] = 0
		}
		if knobs&fuzzOneClass != 0 {
			y[i] = 1
		}
	}
	if knobs&fuzzSignedZero != 0 {
		for _, row := range d.Shared {
			for j := range row {
				row[j] = math.Copysign(0, float64(rng.Intn(2))-0.5)
			}
		}
	}
	if knobs&fuzzZeroWeight != 0 {
		w[rng.Intn(n)] = 1 // keep a positive total unless asked otherwise
	}
	if knobs&fuzzBadWeights != 0 {
		if knobs&fuzzZeroWeight != 0 {
			for i := range w {
				w[i] = 0
			}
		} else {
			w[rng.Intn(n)] = -0.5
		}
	}
	if knobs&fuzzBadShape != 0 && bcols > 0 {
		i := rng.Intn(n)
		d.Base[i] = d.Base[i][:bcols-1]
	}
}

// sameRefusal reports whether two fits both succeeded or both failed
// with the same message.
func sameRefusal(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

func sameModelBits(t *testing.T, got, want *LogReg, label string) {
	t.Helper()
	sameBits(t, got.weights, want.weights, label+" weights")
	sameBits(t, []float64{got.bias}, []float64{want.bias}, label+" bias")
	sameBits(t, got.std.Mean, want.std.Mean, label+" means")
	sameBits(t, got.std.Scale, want.std.Scale, label+" scales")
}

func sameBits(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %v (%#x), want %v (%#x)", label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}
