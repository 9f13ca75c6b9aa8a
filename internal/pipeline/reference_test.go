package pipeline

import (
	"math"
	"runtime"
	"testing"

	"fairindex/internal/dataset"
	"fairindex/internal/geo"
	"fairindex/internal/kdtree"
	"fairindex/internal/ml"
)

// sameFloat compares bit patterns so NaNs (legal in calibration
// ratios) compare equal.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestBuildReferenceParity pins the overhaul's core contract at the
// pipeline level: for every partition method, the optimized Build —
// grouped kernels, pooled scratch, GOMAXPROCS 3 — produces
// artifacts bit-identical to the retained sequential,
// allocation-naive BuildReference. Run with -race this also shakes
// out sharing bugs between the parallel stages.
func TestBuildReferenceParity(t *testing.T) {
	spec := dataset.LA()
	spec.NumRecords = 500
	ds, err := dataset.Generate(spec, geo.MustGrid(24, 24))
	if err != nil {
		t.Fatal(err)
	}
	methods := []Method{
		MethodMedianKD, MethodFairKD, MethodIterativeFairKD,
		MethodMultiObjectiveFairKD, MethodGridReweight, MethodZipCode,
		MethodFairQuadtree,
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	for _, m := range methods {
		for _, height := range []int{2, 5} {
			for _, seed := range []int64{1, 9, 23} {
				cfg := Config{Method: m, Height: height, Seed: seed}
				opt, err := Build(ds, cfg)
				if err != nil {
					t.Fatalf("%v h=%d seed=%d: Build: %v", m, height, seed, err)
				}
				ref, err := BuildReference(ds, cfg)
				if err != nil {
					t.Fatalf("%v h=%d seed=%d: BuildReference: %v", m, height, seed, err)
				}
				compareArtifacts(t, opt, ref, m.String())
			}
		}
	}
}

// TestBuildReferenceParityVariants covers the config corners the main
// sweep fixes: post-processing calibrators, reweighting, the second
// task, alternative objectives and encodings, each optimized build at
// its own GOMAXPROCS.
func TestBuildReferenceParityVariants(t *testing.T) {
	spec := dataset.Houston()
	spec.NumRecords = 450
	ds, err := dataset.Generate(spec, geo.MustGrid(20, 20))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		procs int
		cfg   Config
	}{
		{4, Config{Method: MethodFairKD, Height: 4, Seed: 2, PostProcess: PostPlatt}},
		{4, Config{Method: MethodFairKD, Height: 4, Seed: 2, PostProcess: PostIsotonic}},
		{2, Config{Method: MethodFairKD, Height: 4, Seed: 5, Reweight: true}},
		{2, Config{Method: MethodFairKD, Height: 4, Seed: 5, Task: 1}},
		{2, Config{Method: MethodFairKD, Height: 4, Seed: 5, Objective: kdtree.ObjectiveComposite, Lambda: 0.5}},
		{2, Config{Method: MethodFairKD, Height: 4, Seed: 5, Encoding: dataset.EncOneHot}},
		{2, Config{Method: MethodFairKD, Height: 4, Seed: 5, Encoding: dataset.EncCentroid}},
	}
	for i, c := range cases {
		cfg := c.cfg
		prev := runtime.GOMAXPROCS(c.procs)
		opt, err := Build(ds, cfg)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("case %d: Build: %v", i, err)
		}
		ref, err := BuildReference(ds, cfg)
		if err != nil {
			t.Fatalf("case %d: BuildReference: %v", i, err)
		}
		compareArtifacts(t, opt, ref, "variant")
	}
}

func compareArtifacts(t *testing.T, opt, ref *Artifacts, label string) {
	t.Helper()
	if opt.Partition.NumRegions() != ref.Partition.NumRegions() {
		t.Fatalf("%s: regions %d vs %d", label, opt.Partition.NumRegions(), ref.Partition.NumRegions())
	}
	oc := opt.Partition.CellRegions()
	rc := ref.Partition.CellRegions()
	for i := range oc {
		if oc[i] != rc[i] {
			t.Fatalf("%s: cell %d region %d vs %d", label, i, oc[i], rc[i])
		}
	}
	if len(opt.Tasks) != len(ref.Tasks) {
		t.Fatalf("%s: task counts %d vs %d", label, len(opt.Tasks), len(ref.Tasks))
	}
	for i := range opt.Tasks {
		or, rr := opt.Tasks[i].Report, ref.Tasks[i].Report
		checks := []struct {
			name string
			a, b float64
		}{
			{"ENCE", or.ENCE, rr.ENCE},
			{"ENCETrain", or.ENCETrain, rr.ENCETrain},
			{"ENCETest", or.ENCETest, rr.ENCETest},
			{"Accuracy", or.Accuracy, rr.Accuracy},
			{"AUC", or.AUC, rr.AUC},
			{"TrainMiscal", or.TrainMiscal, rr.TrainMiscal},
			{"TestMiscal", or.TestMiscal, rr.TestMiscal},
			{"ECE", or.ECE, rr.ECE},
			{"TrainCalRatio", or.TrainCalRatio, rr.TrainCalRatio},
			{"TestCalRatio", or.TestCalRatio, rr.TestCalRatio},
			{"StatParityGap", or.StatParityGap, rr.StatParityGap},
			{"EqualOddsGap", or.EqualOddsGap, rr.EqualOddsGap},
		}
		for _, c := range checks {
			if !sameFloat(c.a, c.b) {
				t.Fatalf("%s task %d: %s %v (optimized) != %v (reference)", label, i, c.name, c.a, c.b)
			}
		}
		os, rs := opt.Tasks[i].RegionStats, ref.Tasks[i].RegionStats
		if len(os) != len(rs) {
			t.Fatalf("%s task %d: region stats %d vs %d", label, i, len(os), len(rs))
		}
		for r := range os {
			if os[r].Count != rs[r].Count ||
				!sameFloat(os[r].SumScore, rs[r].SumScore) ||
				!sameFloat(os[r].SumLabel, rs[r].SumLabel) {
				t.Fatalf("%s task %d region %d: stats %+v vs %+v", label, i, r, os[r], rs[r])
			}
		}
		om, okO := opt.Tasks[i].Model.(*ml.LogReg)
		rm, okR := ref.Tasks[i].Model.(*ml.LogReg)
		if okO != okR {
			t.Fatalf("%s task %d: model kinds differ", label, i)
		}
		if okO {
			ow, ob, err := om.Coefficients()
			if err != nil {
				t.Fatal(err)
			}
			rw, rb, err := rm.Coefficients()
			if err != nil {
				t.Fatal(err)
			}
			if !sameFloat(ob, rb) || len(ow) != len(rw) {
				t.Fatalf("%s task %d: bias/width mismatch", label, i)
			}
			for j := range ow {
				if !sameFloat(ow[j], rw[j]) {
					t.Fatalf("%s task %d: weight %d: %v vs %v", label, i, j, ow[j], rw[j])
				}
			}
		}
		if (opt.Tasks[i].Post == nil) != (ref.Tasks[i].Post == nil) {
			t.Fatalf("%s task %d: post-calibrator presence differs", label, i)
		}
	}
}
