// Benchmarks: one target per figure of the paper's evaluation
// (Figures 6–10 and the §5.3.1 timing comparison) plus micro and
// ablation benches for the design choices called out in DESIGN.md.
//
// The per-figure benchmarks execute the same harnesses as
// cmd/fairbench on reduced workloads so `go test -bench=.` stays
// bounded; run `go run ./cmd/fairbench` for the full-size series.
// Each figure bench logs its rendered series once (visible with -v).
package fairindex_test

import (
	"io"
	"log"
	"os"
	"path/filepath"
	"sync"
	"testing"

	fairindex "fairindex"
	"fairindex/internal/dataset"
	"fairindex/internal/experiments"
	"fairindex/internal/geo"
	"fairindex/internal/kdtree"
	"fairindex/internal/ml"
	"fairindex/internal/pipeline"
	"fairindex/internal/registry"
)

// benchOptions is the reduced workload shared by the figure benches.
func benchOptions() experiments.Options {
	la := dataset.LA()
	la.NumRecords = 400
	hou := dataset.Houston()
	hou.NumRecords = 350
	return experiments.Options{
		Grid:     geo.MustGrid(32, 32),
		Cities:   []dataset.CitySpec{la, hou},
		Seed:     11,
		ZipSites: 20,
	}
}

// fullLA lazily generates the paper-sized Los Angeles dataset for the
// timing and micro benches.
var fullLA = sync.OnceValues(func() (*dataset.Dataset, error) {
	return dataset.Generate(dataset.LA(), geo.MustGrid(64, 64))
})

func BenchmarkFig6Disparity(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		results, err := experiments.Fig6(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, c := range results {
				b.Log("\n" + c.Render())
			}
		}
	}
}

func BenchmarkFig7ENCE(b *testing.B) {
	opt := benchOptions()
	heights := []int{4, 6, 8}
	models := []ml.ModelKind{ml.ModelLogReg}
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Fig7(opt, heights, models)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, c := range cells {
				b.Log("\n" + c.Render())
			}
		}
	}
}

func BenchmarkFig8Utility(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		cities, err := experiments.Fig8(opt, []int{4, 6, 8})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, c := range cities {
				b.Log("\n" + c.Render())
			}
		}
	}
}

func BenchmarkFig9Importance(b *testing.B) {
	opt := benchOptions()
	opt.Cities = opt.Cities[:1]
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Fig9(opt, []int{2, 4, 6})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, c := range cells {
				b.Log("\n" + c.Render())
			}
		}
	}
}

func BenchmarkFig10MultiObjective(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Fig10(opt, []int{4, 6})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, c := range cells {
				b.Log("\n" + c.Render())
			}
		}
	}
}

// The §5.3.1 timing comparison at the paper's reference point
// (height 10, full-size Los Angeles): BenchmarkBuildFairKD vs
// BenchmarkBuildIterativeKD is the 102 s vs 189 s claim, shape-only.
func BenchmarkBuildFairKD(b *testing.B) {
	benchBuild(b, pipeline.MethodFairKD)
}

func BenchmarkBuildIterativeKD(b *testing.B) {
	benchBuild(b, pipeline.MethodIterativeFairKD)
}

func BenchmarkBuildMedianKD(b *testing.B) {
	benchBuild(b, pipeline.MethodMedianKD)
}

func benchBuild(b *testing.B, method pipeline.Method) {
	b.Helper()
	ds, err := fullLA()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pipeline.Run(ds, pipeline.Config{Method: method, Height: 10, Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("%v: build %v, final train %v, regions %d",
				method, res.BuildTime, res.TrainTime, res.NumRegions)
		}
	}
}

// Ablation: the literal Eq. 13 objective vs the consistent Eq. 9 form
// (DESIGN.md §2). The deviation mass left in the leaves is logged for
// comparison.
func BenchmarkAblationEq13(b *testing.B) {
	benchObjective(b, kdtree.ObjectiveLiteralEq13, 0)
}

func BenchmarkAblationEq9(b *testing.B) {
	benchObjective(b, kdtree.ObjectiveEq9, 0)
}

// Ablation: composite split metric (future work §6) at λ = 0.5.
func BenchmarkAblationComposite(b *testing.B) {
	benchObjective(b, kdtree.ObjectiveComposite, 0.5)
}

func benchObjective(b *testing.B, obj kdtree.Objective, lambda float64) {
	b.Helper()
	ds, err := fullLA()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pipeline.Run(ds, pipeline.Config{
			Method:    pipeline.MethodFairKD,
			Height:    8,
			Seed:      11,
			Objective: obj,
			Lambda:    lambda,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("objective %v: train ENCE %.5f over %d regions",
				obj, res.Tasks[0].ENCETrain, res.NumRegions)
		}
	}
}

// Ablation: neighborhood encodings.
func BenchmarkAblationEncodingCentroid(b *testing.B) {
	benchEncoding(b, dataset.EncCentroid)
}

func BenchmarkAblationEncodingOneHot(b *testing.B) {
	benchEncoding(b, dataset.EncOneHot)
}

func benchEncoding(b *testing.B, enc dataset.Encoding) {
	b.Helper()
	ds, err := fullLA()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pipeline.Run(ds, pipeline.Config{
			Method:   pipeline.MethodFairKD,
			Height:   8,
			Seed:     11,
			Encoding: enc,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("encoding %v: train ENCE %.5f, accuracy %.3f",
				enc, res.Tasks[0].ENCETrain, res.Tasks[0].Accuracy)
		}
	}
}

// Ablation: the Hilbert-curve fair partitioner (future work §6)
// against the Fair KD-tree at equal region budget. Logged deviation
// masses compare the two shapes of the same Eq. 9 criterion.
func BenchmarkAblationFairCurve(b *testing.B) {
	ds, err := fullLA()
	if err != nil {
		b.Fatal(err)
	}
	cells := ds.Cells()
	dev := make([]float64, len(cells))
	for i := range dev {
		dev[i] = float64(i%13)/13 - 0.5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := kdtree.BuildFairCurve(ds.Grid, cells, dev, 8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("fair curve: %d regions", p.NumRegions())
		}
	}
}

// Index serving benchmarks: the build-once / query-many hot path.
// Baselines live in BENCH_index.json so later perf PRs have a
// trajectory to beat.

// fullIndex lazily builds the paper-sized LA index shared by the
// serving benches (the Index is immutable and concurrency-safe, so
// sharing across benchmarks is sound).
var fullIndex = sync.OnceValues(func() (*fairindex.Index, error) {
	ds, err := fullLA()
	if err != nil {
		return nil, err
	}
	return fairindex.Build(ds,
		fairindex.WithMethod(fairindex.MethodFairKD),
		fairindex.WithHeight(8),
		fairindex.WithSeed(11))
})

func BenchmarkIndexBuild(b *testing.B) {
	ds, err := fullLA()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, err := fairindex.Build(ds,
			fairindex.WithMethod(fairindex.MethodFairKD),
			fairindex.WithHeight(8),
			fairindex.WithSeed(11))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("index: %d regions, build %v, train %v",
				idx.NumRegions(), idx.BuildTime(), idx.TrainTime())
		}
	}
}

// benchmarkScaledBuild is the build-pipeline scaling series: a skewed
// synthetic city at n records (dataset.Scaled), Fair KD-tree at the
// default height 8. BenchmarkIndexBuild10k runs in the default suite;
// the 100k and 1M points live behind the `slow` build tag
// (bench_scale_test.go) and anchor the recorded scaling curve in
// BENCH_index.json.
func benchmarkScaledBuild(b *testing.B, n int) {
	b.Helper()
	ds, err := dataset.Generate(dataset.Scaled(dataset.LA(), n), geo.MustGrid(64, 64))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, err := fairindex.Build(ds,
			fairindex.WithMethod(fairindex.MethodFairKD),
			fairindex.WithHeight(8),
			fairindex.WithSeed(11))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("n=%d: %d regions, build %v, train %v",
				n, idx.NumRegions(), idx.BuildTime(), idx.TrainTime())
		}
	}
}

func BenchmarkIndexBuild10k(b *testing.B) { benchmarkScaledBuild(b, 10_000) }

func BenchmarkIndexLocate(b *testing.B) {
	idx, err := fullIndex()
	if err != nil {
		b.Fatal(err)
	}
	ds, err := fullLA()
	if err != nil {
		b.Fatal(err)
	}
	n := ds.Len()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := &ds.Records[i%n]
		if _, err := idx.Locate(rec.Lat, rec.Lon); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexLocateBatch(b *testing.B) {
	idx, err := fullIndex()
	if err != nil {
		b.Fatal(err)
	}
	ds, err := fullLA()
	if err != nil {
		b.Fatal(err)
	}
	const batch = 1000
	lats := make([]float64, batch)
	lons := make([]float64, batch)
	for i := 0; i < batch; i++ {
		rec := &ds.Records[i%ds.Len()]
		lats[i] = rec.Lat
		lons[i] = rec.Lon
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.LocateBatch(lats, lons); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexLocateBatchLarge runs the batch kernel over a
// 131072-point batch on one goroutine (ns/op here is per batch;
// divide by 131072 for ns/point).
func BenchmarkIndexLocateBatchLarge(b *testing.B) {
	idx, err := fullIndex()
	if err != nil {
		b.Fatal(err)
	}
	ds, err := fullLA()
	if err != nil {
		b.Fatal(err)
	}
	const batch = 131072
	lats := make([]float64, batch)
	lons := make([]float64, batch)
	for i := 0; i < batch; i++ {
		rec := &ds.Records[i%ds.Len()]
		lats[i] = rec.Lat
		lons[i] = rec.Lon
	}
	out := make([]int, batch)
	b.SetBytes(batch * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := idx.LocateBatchInto(out, lats, lons); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexScore(b *testing.B) {
	idx, err := fullIndex()
	if err != nil {
		b.Fatal(err)
	}
	ds, err := fullLA()
	if err != nil {
		b.Fatal(err)
	}
	n := ds.Len()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.Score(ds.Records[i%n], 0); err != nil {
			b.Fatal(err)
		}
	}
}

// Query-engine benchmarks: the region workload added with the query
// subsystem. RangeQuery sweeps a quarter-box window (prunes via the
// per-region bounding rects), NearestRegions runs the centroid
// kd-tree search, GroupStats aggregates the stored per-region
// sufficient statistics over a quarter-box window.

func BenchmarkIndexRangeQuery(b *testing.B) {
	idx, err := fullIndex()
	if err != nil {
		b.Fatal(err)
	}
	box := idx.Box()
	q := fairindex.BBox{
		MinLat: box.MinLat, MinLon: box.MinLon,
		MaxLat: (box.MinLat + box.MaxLat) / 2, MaxLon: (box.MinLon + box.MaxLon) / 2,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		overlaps, err := idx.RangeQuery(q)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("quarter-box window: %d of %d regions", len(overlaps), idx.NumRegions())
		}
	}
}

func BenchmarkIndexNearestRegions(b *testing.B) {
	idx, err := fullIndex()
	if err != nil {
		b.Fatal(err)
	}
	ds, err := fullLA()
	if err != nil {
		b.Fatal(err)
	}
	n := ds.Len()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := &ds.Records[i%n]
		if _, err := idx.NearestRegions(rec.Lat, rec.Lon, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexGroupStats(b *testing.B) {
	idx, err := fullIndex()
	if err != nil {
		b.Fatal(err)
	}
	box := idx.Box()
	overlaps, err := idx.RangeQuery(fairindex.BBox{
		MinLat: box.MinLat, MinLon: box.MinLon,
		MaxLat: (box.MinLat + box.MaxLat) / 2, MaxLon: (box.MinLon + box.MaxLon) / 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	regions := make([]int, len(overlaps))
	for i, ov := range overlaps {
		regions[i] = ov.Region
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.GroupStats(0, regions); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexGroupStatsMetrics is BenchmarkIndexGroupStats with
// every registered fairness metric evaluated over the same window —
// the cost of the pluggable-metric layer on top of the legacy
// aggregation.
func BenchmarkIndexGroupStatsMetrics(b *testing.B) {
	idx, err := fullIndex()
	if err != nil {
		b.Fatal(err)
	}
	box := idx.Box()
	overlaps, err := idx.RangeQuery(fairindex.BBox{
		MinLat: box.MinLat, MinLon: box.MinLon,
		MaxLat: (box.MinLat + box.MaxLat) / 2, MaxLon: (box.MinLon + box.MaxLon) / 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	regions := make([]int, len(overlaps))
	for i, ov := range overlaps {
		regions[i] = ov.Region
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.GroupStatsMetrics(0, regions); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexAppendBatch folds 200-record batches of the paper LA
// records into a private copy of the paper index with ence and
// stat_parity armed: locate and score every record, copy-on-write
// fold of the per-region statistics, and the drift report over both
// monitored metrics.
func BenchmarkIndexAppendBatch(b *testing.B) {
	const batch = 200
	shared, err := fullIndex()
	if err != nil {
		b.Fatal(err)
	}
	blob, err := shared.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	var idx fairindex.Index
	if err := idx.UnmarshalBinary(blob); err != nil {
		b.Fatal(err)
	}
	if err := idx.SetDriftThresholds(map[string]float64{
		fairindex.MetricENCE: 0.05, fairindex.MetricStatParity: 0.05,
	}); err != nil {
		b.Fatal(err)
	}
	ds, err := fullLA()
	if err != nil {
		b.Fatal(err)
	}
	batches := len(ds.Records) / batch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i % batches) * batch
		if _, err := idx.AppendBatch(ds.Records[off : off+batch]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexMarshal(b *testing.B) {
	idx, err := fullIndex()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := idx.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("index blob: %d bytes", len(blob))
		}
	}
}

func BenchmarkIndexUnmarshal(b *testing.B) {
	idx, err := fullIndex()
	if err != nil {
		b.Fatal(err)
	}
	blob, err := idx.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var back fairindex.Index
		if err := back.UnmarshalBinary(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmarks for the core primitives.

func BenchmarkFairSplitScan(b *testing.B) {
	ds, err := fullLA()
	if err != nil {
		b.Fatal(err)
	}
	cells := ds.Cells()
	dev := make([]float64, len(cells))
	for i := range dev {
		dev[i] = float64(i%13)/13 - 0.5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kdtree.BuildFair(ds.Grid, cells, dev, kdtree.Config{Height: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCellSums(b *testing.B) {
	ds, err := fullLA()
	if err != nil {
		b.Fatal(err)
	}
	cells := ds.Cells()
	dev := make([]float64, len(cells))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kdtree.NewCellSums(ds.Grid, cells, dev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLogRegFit(b *testing.B) {
	ds, err := fullLA()
	if err != nil {
		b.Fatal(err)
	}
	X := make([][]float64, ds.Len())
	y := make([]int, ds.Len())
	for i := range ds.Records {
		X[i] = ds.Records[i].X
		y[i] = ds.Records[i].Labels[0]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := ml.NewLogReg()
		if err := m.Fit(X, y, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegistryLookup measures the multi-index catalog's request
// hot path: resolving a resident entry by name must stay one atomic
// snapshot load plus a map read plus an atomic entry load — no lock.
// Watched by cmd/benchgate: a mutex sneaking onto this path is an
// order-of-magnitude regression under contention and fails CI.
func BenchmarkRegistryLookup(b *testing.B) {
	idx, err := fullIndex()
	if err != nil {
		b.Fatal(err)
	}
	reg := registry.New()
	names := []string{"la-fair-h8", "la-zipcode", "la-quadtree", "houston-fair"}
	for _, name := range names {
		if err := reg.AddIndex(name, idx); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Lookup(names[i&3]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegistryLoad measures a registry miss: a file-backed
// registry that keeps one index resident, looked up by two names in
// turn, so every Lookup opens, reads and decodes one artifact file
// (LoadIndex) and evicts the other. This is the request-path cost a
// server pays when its resident bound is tighter than its catalog.
func BenchmarkRegistryLoad(b *testing.B) {
	reg, names := missRegistry(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Lookup(names[i&1]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if n := reg.LoadedCount(); n != 1 {
		b.Fatalf("%d indexes resident, want 1", n)
	}
}

// BenchmarkRegistryMissGeneration is BenchmarkRegistryLoad plus the
// freshly loaded index's Fingerprint: what a server pays on a miss,
// where resolveIndex stamps the generation header on the reply.
func BenchmarkRegistryMissGeneration(b *testing.B) {
	reg, names := missRegistry(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, err := reg.Lookup(names[i&1])
		if err != nil {
			b.Fatal(err)
		}
		if _, err := idx.Fingerprint(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if n := reg.LoadedCount(); n != 1 {
		b.Fatalf("%d indexes resident, want 1", n)
	}
}

// missRegistry is the registry-miss benchmarks' fixture: the paper
// index's artifact written to two files, registered under two names
// behind WithMaxLoaded(1), so alternate lookups always load.
func missRegistry(b *testing.B) (*registry.Registry, []string) {
	idx, err := fullIndex()
	if err != nil {
		b.Fatal(err)
	}
	blob, err := idx.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	names := []string{"la-a", "la-b"}
	reg := registry.New(registry.WithMaxLoaded(1), registry.WithLogger(log.New(io.Discard, "", 0)))
	for _, name := range names {
		path := filepath.Join(dir, name+".fidx")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			b.Fatal(err)
		}
		if err := reg.Add(name, path); err != nil {
			b.Fatal(err)
		}
	}
	return reg, names
}

// BenchmarkRegistryLookupParallel is the same hot path under
// GOMAXPROCS-way contention — the shape a loaded multi-tenant server
// actually sees. Lock-free resolution should scale near-linearly.
func BenchmarkRegistryLookupParallel(b *testing.B) {
	idx, err := fullIndex()
	if err != nil {
		b.Fatal(err)
	}
	reg := registry.New()
	names := []string{"la-fair-h8", "la-zipcode", "la-quadtree", "houston-fair"}
	for _, name := range names {
		if err := reg.AddIndex(name, idx); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := reg.Lookup(names[i&3]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

func BenchmarkENCEMetric(b *testing.B) {
	ds, err := fullLA()
	if err != nil {
		b.Fatal(err)
	}
	n := ds.Len()
	scores := make([]float64, n)
	labels := make([]int, n)
	groups := make([]int, n)
	for i := 0; i < n; i++ {
		scores[i] = float64(i%100) / 100
		labels[i] = i % 2
		groups[i] = i % 64
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fairindex.ENCE(scores, labels, groups, 64); err != nil {
			b.Fatal(err)
		}
	}
}
