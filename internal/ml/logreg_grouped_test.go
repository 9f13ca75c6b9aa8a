package ml

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// randGrouped builds a random factorized design plus labels/weights.
func randGrouped(rng *rand.Rand, n, bcols, numG, scols int) (*GroupedDesign, []int, []float64) {
	d := &GroupedDesign{
		Base:   make([][]float64, n),
		Group:  make([]int, n),
		Shared: make([][]float64, numG),
	}
	for r := range d.Shared {
		row := make([]float64, scols)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		d.Shared[r] = row
	}
	y := make([]int, n)
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, bcols)
		for j := range row {
			row[j] = rng.NormFloat64() * 3
		}
		d.Base[i] = row
		d.Group[i] = rng.Intn(numG)
		if rng.Float64() < 0.5 {
			y[i] = 1
		}
		w[i] = 0.25 + rng.Float64()
	}
	return d, y, w
}

// materialize returns the dense matrix of a grouped design.
func materialize(d *GroupedDesign) [][]float64 {
	X := make([][]float64, d.Rows())
	for i := range X {
		X[i] = d.Row(i)
	}
	return X
}

func sameModel(t *testing.T, a, b *LogReg, label string) {
	t.Helper()
	if a.bias != b.bias {
		t.Fatalf("%s: bias %v vs %v", label, a.bias, b.bias)
	}
	for j := range a.weights {
		if a.weights[j] != b.weights[j] {
			t.Fatalf("%s: weight[%d] %v vs %v (diff %g)", label, j, a.weights[j], b.weights[j], a.weights[j]-b.weights[j])
		}
	}
	for j := range a.std.Mean {
		if a.std.Mean[j] != b.std.Mean[j] || a.std.Scale[j] != b.std.Scale[j] {
			t.Fatalf("%s: standardizer col %d differs", label, j)
		}
	}
}

// parallelRowsN is large enough that every worker count under test gets
// its own row chunks (fits go parallel from 2·minChunk rows), and not a
// multiple of any of them, so the last chunk is short. The cases at
// this size run the parallel forward pass and gradient tasks; their
// base-column counts hit every column-block width (1–4) and the empty
// base block.
const parallelRowsN = 4099

// The optimized grouped fit must be bit-identical to the retained
// naive reference for any worker count, weighted or not.
func TestFitGroupedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range []struct {
		n, bcols, numG, scols int
		workers               []int
	}{
		{50, 3, 4, 6, []int{1}},
		{400, 5, 16, 18, []int{1}},
		{1200, 5, 32, 34, []int{4}},
		{300, 0, 8, 10, []int{3}}, // no base columns
		{257, 4, 1, 3, []int{2}},  // single group
		{parallelRowsN, 0, 9, 11, []int{2, 3, 4}},
		{parallelRowsN, 1, 6, 8, []int{2, 3, 4}},
		{parallelRowsN, 5, 12, 14, []int{2, 3, 4}},
		{parallelRowsN, 7, 1, 3, []int{2, 3, 4}}, // single group
		{parallelRowsN, 9, 5, 7, []int{2, 3, 4}},
	} {
		d, y, w := randGrouped(rng, tc.n, tc.bcols, tc.numG, tc.scols)
		for _, weights := range [][]float64{nil, w} {
			ref := NewLogReg()
			ref.Epochs = 40
			if err := ref.FitGroupedReference(d, y, weights); err != nil {
				t.Fatalf("FitGroupedReference: %v", err)
			}
			pr, err := ref.PredictProbaGroupedReference(d)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range tc.workers {
				opt := NewLogReg()
				opt.Epochs = 40
				opt.Workers = workers
				if err := opt.FitGrouped(d, y, weights); err != nil {
					t.Fatalf("FitGrouped: %v", err)
				}
				sameModel(t, opt, ref, "grouped fit")
				po, err := opt.PredictProbaGrouped(d)
				if err != nil {
					t.Fatal(err)
				}
				sameScores(t, po, pr, "grouped predict")
			}
		}
	}
}

// The rewritten dense Fit/PredictProba must be bit-identical to the
// retained pre-overhaul implementation for any worker count.
func TestFitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		n, bcols, numG, scols int
		workers               []int
	}{
		{700, 6, 9, 5, []int{0}},
		{700, 6, 9, 5, []int{1}},
		{700, 6, 9, 5, []int{4}},
		{parallelRowsN, 1, 1, 0, []int{2, 3, 4}},
		{parallelRowsN, 5, 1, 0, []int{2, 3, 4}},
		{parallelRowsN, 7, 1, 0, []int{2, 3, 4}},
		{parallelRowsN, 9, 1, 0, []int{2, 3, 4}},
	} {
		d, y, w := randGrouped(rng, tc.n, tc.bcols, tc.numG, tc.scols)
		X := materialize(d)
		for _, weights := range [][]float64{nil, w} {
			ref := NewLogReg()
			ref.Epochs = 35
			if err := ref.FitReference(X, y, weights); err != nil {
				t.Fatalf("FitReference: %v", err)
			}
			pr, err := ref.PredictProbaReference(X)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range tc.workers {
				opt := NewLogReg()
				opt.Epochs = 35
				opt.Workers = workers
				if err := opt.Fit(X, y, weights); err != nil {
					t.Fatalf("Fit: %v", err)
				}
				sameModel(t, opt, ref, "dense fit")
				po, err := opt.PredictProba(X)
				if err != nil {
					t.Fatal(err)
				}
				sameScores(t, po, pr, "dense predict")
			}
		}
	}
}

// Scoring no rows returns an empty result.
func TestPredictProbaNoRows(t *testing.T) {
	d, y, _ := randGrouped(rand.New(rand.NewSource(1)), 40, 2, 3, 2)
	m := NewLogReg()
	m.Epochs = 2
	m.Workers = 2
	if err := m.FitGrouped(d, y, nil); err != nil {
		t.Fatal(err)
	}
	if p, err := m.PredictProba(nil); err != nil || len(p) != 0 {
		t.Fatalf("PredictProba(nil) = %v, %v", p, err)
	}
}

func sameScores(t *testing.T, got, want []float64, label string) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s row %d: %v vs %v", label, i, got[i], want[i])
		}
	}
}

// An epoch must not allocate: the crew and every phase closure are set
// up once per fit, so 5 and 50 epochs cost the same allocations. The
// fits still start their helper goroutine (Workers 2 over 4096 rows);
// one P and the least of three measurements keep the runtime's own
// per-fit allocations — a goroutine descriptor when the P's free list
// is empty, a scratch-pool refill after a GC — from varying between
// them, while an allocation per epoch would show in every one.
func TestFitAllocsIndependentOfEpochs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(5))
	d, y, w := randGrouped(rng, 4096, 5, 8, 10)
	X := materialize(d)
	fits := map[string]func(m *LogReg) error{
		"Fit":        func(m *LogReg) error { return m.Fit(X, y, w) },
		"FitGrouped": func(m *LogReg) error { return m.FitGrouped(d, y, w) },
	}
	for name, fit := range fits {
		allocs := func(epochs int) float64 {
			m := NewLogReg()
			m.Epochs = epochs
			m.Workers = 2
			least := math.Inf(1)
			for range 3 {
				least = min(least, testing.AllocsPerRun(5, func() {
					if err := fit(m); err != nil {
						t.Fatal(err)
					}
				}))
			}
			return least
		}
		if few, many := allocs(5), allocs(50); few != many {
			t.Errorf("%s: %v allocs at 5 epochs, %v at 50", name, few, many)
		}
	}
}

// Grouped training re-associates shared-block sums, so it is not
// bit-identical to dense training — but it fits the same model: the
// standardizer matches exactly and weights agree to float tolerance.
func TestFitGroupedMatchesDenseApprox(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	d, y, w := randGrouped(rng, 600, 5, 12, 14)
	X := materialize(d)

	grouped := NewLogReg()
	grouped.Epochs = 60
	if err := grouped.FitGrouped(d, y, w); err != nil {
		t.Fatal(err)
	}
	dense := NewLogReg()
	dense.Epochs = 60
	if err := dense.Fit(X, y, w); err != nil {
		t.Fatal(err)
	}
	for j := range dense.std.Mean {
		if grouped.std.Mean[j] != dense.std.Mean[j] || grouped.std.Scale[j] != dense.std.Scale[j] {
			t.Fatalf("standardizer col %d differs between grouped and dense", j)
		}
	}
	for j := range dense.weights {
		if math.Abs(grouped.weights[j]-dense.weights[j]) > 1e-9 {
			t.Fatalf("weight[%d] drifted: grouped %v dense %v", j, grouped.weights[j], dense.weights[j])
		}
	}
	if math.Abs(grouped.bias-dense.bias) > 1e-9 {
		t.Fatalf("bias drifted: grouped %v dense %v", grouped.bias, dense.bias)
	}
}

// A grouped-fitted model serves dense rows (the Index.Score path):
// PredictProba on materialized rows must agree with the grouped
// forward to float tolerance.
func TestGroupedModelServesDenseRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d, y, _ := randGrouped(rng, 300, 4, 6, 8)
	m := NewLogReg()
	m.Epochs = 30
	if err := m.FitGrouped(d, y, nil); err != nil {
		t.Fatal(err)
	}
	pg, err := m.PredictProbaGrouped(d)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := m.PredictProba(materialize(d))
	if err != nil {
		t.Fatal(err)
	}
	for i := range pg {
		if math.Abs(pg[i]-pd[i]) > 1e-12 {
			t.Fatalf("row %d: grouped %v dense %v", i, pg[i], pd[i])
		}
	}
}

func TestFitGroupedValidation(t *testing.T) {
	m := NewLogReg()
	bad := []*GroupedDesign{
		{},
		{Base: [][]float64{{1}}, Group: []int{0}},                                      // no shared rows but group id 0
		{Base: [][]float64{{1}, {2}}, Group: []int{0}, Shared: [][]float64{{1}}},       // group len mismatch
		{Base: [][]float64{{1}, {2, 3}}, Group: []int{0, 0}, Shared: [][]float64{{1}}}, // ragged base
		{Base: [][]float64{{1}, {2}}, Group: []int{0, 5}, Shared: [][]float64{{1}}},    // group out of range
	}
	for i, d := range bad {
		n := len(d.Base)
		y := make([]int, n)
		if err := m.FitGrouped(d, y, nil); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	// Label length mismatch.
	d := &GroupedDesign{Base: [][]float64{{1}, {2}}, Group: []int{0, 0}, Shared: [][]float64{{1, 2}}}
	if err := m.FitGrouped(d, []int{1}, nil); err == nil {
		t.Fatal("expected label-length error")
	}
	// Predict before fit.
	if _, err := NewLogReg().PredictProbaGrouped(d); err == nil {
		t.Fatal("expected not-fitted error")
	}
}

// The grouped reference twins index Group, so a design with no shared
// block — which the kernels accept as dense rows — must come back as
// ErrShape instead of an index-out-of-range panic.
func TestGroupedReferencesRejectNoSharedBlock(t *testing.T) {
	dense := &GroupedDesign{Base: [][]float64{{1, 0}, {2, 1}, {0, 3}}}
	y := []int{0, 1, 1}
	if err := NewLogReg().FitGroupedReference(dense, y, nil); !errors.Is(err, ErrShape) {
		t.Fatalf("FitGroupedReference: %v, want ErrShape", err)
	}
	m := NewLogReg()
	grouped := &GroupedDesign{Base: [][]float64{{1}, {2}, {0}}, Group: []int{0, 0, 1}, Shared: [][]float64{{0}, {1}}}
	if err := m.FitGroupedReference(grouped, y, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.PredictProbaGroupedReference(dense); !errors.Is(err, ErrShape) {
		t.Fatalf("PredictProbaGroupedReference: %v, want ErrShape", err)
	}
}
