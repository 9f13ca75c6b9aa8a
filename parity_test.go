package fairindex

import (
	"bytes"
	"runtime"
	"testing"

	"fairindex/internal/dataset"
	"fairindex/internal/geo"
	"fairindex/internal/pipeline"
)

// TestIndexBuildParity is the overhaul's acceptance gate at the
// artifact level: for every partition method, several heights and
// seeds, the optimized Build (grouped training kernels, pooled
// scratch, GOMAXPROCS > 1 workers) must serialize to the exact bytes of an
// index assembled from pipeline.BuildReference — the retained
// sequential, allocation-naive build. Wall-clock durations are the
// only fields allowed to differ; the test zeroes them on both sides
// before comparing.
//
// The sweep's 420-record city trains every model inline (the
// classifiers go parallel only from 2048 rows), so one case builds a
// 5,000-record city at GOMAXPROCS 2: its fits run the parallel forward
// passes and the per-column gradient tasks. Run under -race in CI,
// this also proves the parallel stages share nothing they should not.
func TestIndexBuildParity(t *testing.T) {
	spec := dataset.LA()
	spec.NumRecords = 420
	ds, err := dataset.Generate(spec, geo.MustGrid(20, 20))
	if err != nil {
		t.Fatal(err)
	}
	methods := []Method{
		MethodMedianKD, MethodFairKD, MethodIterativeFairKD,
		MethodMultiObjectiveFairKD, MethodGridReweight, MethodZipCode,
		MethodFairQuadtree,
	}
	for _, m := range methods {
		for _, height := range []int{3, 6} {
			for _, seed := range []int64{2, 11, 77} {
				checkBuildParity(t, ds, Config{Method: m, Height: height, Seed: seed}, 3)
			}
		}
	}

	spec.NumRecords = 5000
	large, err := dataset.Generate(spec, geo.MustGrid(32, 32))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodFairKD, MethodIterativeFairKD} {
		checkBuildParity(t, large, Config{Method: m, Height: 4, Seed: 11}, 2)
	}
}

// checkBuildParity fails t unless Build at GOMAXPROCS procs and the
// sequential pipeline.BuildReference serialize cfg over ds to the same
// bytes, durations zeroed.
func checkBuildParity(t *testing.T, ds *dataset.Dataset, cfg Config, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	opt, err := Build(ds, WithConfig(cfg))
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatalf("%+v procs=%d: Build: %v", cfg, procs, err)
	}
	refArt, err := pipeline.BuildReference(ds, cfg)
	if err != nil {
		t.Fatalf("%+v: BuildReference: %v", cfg, err)
	}
	ref, err := newIndex(ds, refArt)
	if err != nil {
		t.Fatalf("%+v: newIndex(reference): %v", cfg, err)
	}
	// Durations are wall-clock observability, not artifact content;
	// everything else must match bit for bit.
	opt.buildTime, opt.trainTime = 0, 0
	ref.buildTime, ref.trainTime = 0, 0
	optBytes, err := opt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	refBytes, err := ref.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(optBytes, refBytes) {
		at := 0
		for at < len(optBytes) && at < len(refBytes) && optBytes[at] == refBytes[at] {
			at++
		}
		t.Fatalf("%+v n=%d: optimized .fidx (%d bytes) diverges from reference (%d bytes) at offset %d",
			cfg, ds.Len(), len(optBytes), len(refBytes), at)
	}
}

// TestIndexBuildParityPostProcess extends the byte parity to indexes
// carrying fitted per-region calibrators, the artifact component the
// main sweep does not exercise.
func TestIndexBuildParityPostProcess(t *testing.T) {
	spec := dataset.Houston()
	spec.NumRecords = 380
	ds, err := dataset.Generate(spec, geo.MustGrid(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	for _, post := range []PostProcess{PostPlatt, PostIsotonic} {
		checkBuildParity(t, ds, Config{Method: MethodFairKD, Height: 4, Seed: 5, PostProcess: post}, 4)
	}
}
