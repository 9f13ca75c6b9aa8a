package fairindex

import (
	"errors"
	"math"
	"sync"
	"testing"

	"fairindex/internal/calib"
	"fairindex/internal/dataset"
	"fairindex/internal/geo"
)

// splitCity generates one city and splits it into a build set and an
// append set that share schema and geography.
func splitCity(t *testing.T, total, appendN int) (*Dataset, []Record) {
	t.Helper()
	spec := dataset.LA()
	spec.NumRecords = total
	all, err := dataset.Generate(spec, geo.MustGrid(20, 20))
	if err != nil {
		t.Fatal(err)
	}
	build := &dataset.Dataset{
		Name: all.Name, Grid: all.Grid, Box: all.Box,
		FeatureNames: all.FeatureNames, TaskNames: all.TaskNames,
		Records: all.Records[:total-appendN],
	}
	return build, all.Records[total-appendN:]
}

// foldExpected recomputes the post-append per-region statistics from
// first principles through the public serving surface: locate and
// score each appended record, then add it to the captured baseline.
// AppendBatch must match this bit for bit — the fold is additive and
// accumulates in the same record order calib.GroupBy uses.
func foldExpected(t *testing.T, idx *Index, baseline []calib.SuffStats, slot int, recs []Record) []calib.SuffStats {
	t.Helper()
	task := idx.tasks[slot].task
	st := append([]calib.SuffStats(nil), baseline...)
	for i := range recs {
		region, err := idx.Locate(recs[i].Lat, recs[i].Lon)
		if err != nil {
			t.Fatal(err)
		}
		score, err := idx.Score(recs[i], task)
		if err != nil {
			t.Fatal(err)
		}
		g := &st[region]
		g.Count++
		g.SumScore += score
		if recs[i].Labels[task] != 0 {
			g.SumLabel++
		}
	}
	return st
}

// TestAppendBatchExactness is the maintenance acceptance gate:
// AppendBatch-then-GroupStats must equal the from-scratch recompute
// over the grown population under the frozen models — exactly, not
// approximately.
func TestAppendBatchExactness(t *testing.T) {
	build, extra := splitCity(t, 500, 80)
	idx, err := Build(build, WithConfig(Config{Method: MethodFairKD, Height: 4, Seed: 11}))
	if err != nil {
		t.Fatal(err)
	}
	baselines := make([][]calib.SuffStats, len(idx.tasks))
	expected := make([][]calib.SuffStats, len(idx.tasks))
	for slot := range idx.tasks {
		baselines[slot] = append([]calib.SuffStats(nil), idx.statsFor(slot)...)
		expected[slot] = foldExpected(t, idx, baselines[slot], slot, extra)
	}

	// Fold in two batches to exercise snapshot chaining.
	if _, err := idx.AppendBatch(extra[:30]); err != nil {
		t.Fatal(err)
	}
	res, err := idx.AppendBatch(extra[30:])
	if err != nil {
		t.Fatal(err)
	}
	if res.Appended != 50 || res.Total != 80 || idx.Appended() != 80 {
		t.Errorf("counts: appended=%d total=%d Appended()=%d", res.Appended, res.Total, idx.Appended())
	}

	for slot := range idx.tasks {
		live := idx.statsFor(slot)
		want := expected[slot]
		for r := range want {
			if live[r] != want[r] {
				t.Fatalf("task slot %d region %d: live %+v, recompute %+v", slot, r, live[r], want[r])
			}
		}
		// Live ENCE is the fold of exactly these statistics; Report
		// and Drift observe it.
		wantENCE := calib.ENCEFromStats(want)
		rep, err := idx.Report(idx.tasks[slot].task)
		if err != nil {
			t.Fatal(err)
		}
		if rep.ENCE != wantENCE {
			t.Errorf("task slot %d: Report ENCE %v, want %v", slot, rep.ENCE, wantENCE)
		}
		d, err := idx.MetricDrift(idx.tasks[slot].task, MetricENCE)
		if err != nil {
			t.Fatal(err)
		}
		if want := math.Abs(wantENCE - idx.tasks[slot].report.ENCE); d != want {
			t.Errorf("task slot %d: Drift %v, want %v", slot, d, want)
		}
	}

	// GroupStats over all regions reflects the grown population.
	regions := make([]int, idx.NumRegions())
	for i := range regions {
		regions[i] = i
	}
	ws, err := idx.GroupStats(idx.Tasks()[0], regions)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Count != len(build.Records)+len(extra) {
		t.Errorf("window population %d, want %d", ws.Count, len(build.Records)+len(extra))
	}
}

// TestAppendSurvivesSerialization pins that folded statistics ride
// the existing v2 stats section: save → load preserves the live
// per-region statistics and therefore the drift measurement, without
// a codec bump.
func TestAppendSurvivesSerialization(t *testing.T) {
	build, extra := splitCity(t, 460, 60)
	idx, err := Build(build, WithConfig(Config{Method: MethodFairQuadtree, Height: 3, Seed: 2}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := idx.AppendBatch(extra)
	if err != nil {
		t.Fatal(err)
	}
	if res.Drift == 0 {
		t.Fatal("test needs a drift-producing append; got exactly 0")
	}
	blob, err := idx.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Index
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for slot := range idx.tasks {
		live, reloaded := idx.statsFor(slot), back.statsFor(slot)
		for r := range live {
			if live[r] != reloaded[r] {
				t.Fatalf("slot %d region %d: reloaded stats %+v, want %+v", slot, r, reloaded[r], live[r])
			}
		}
	}
	// The stored report keeps the build-time ENCE baseline, so drift
	// is still measurable after the reload; the append counter is
	// runtime observability and resets.
	backDrift, _ := back.MaxMetricDrift(MetricENCE)
	liveDrift, _ := idx.MaxMetricDrift(MetricENCE)
	if backDrift != liveDrift {
		t.Errorf("reloaded MaxMetricDrift %v, want %v", backDrift, liveDrift)
	}
	if back.Appended() != 0 {
		t.Errorf("reloaded Appended %d, want 0", back.Appended())
	}

	// Every other metric has no stored baseline: it measures drift from
	// the statistics as loaded, which already hold the appended records,
	// so its drift restarts at 0 and a threshold the live index crossed
	// no longer recommends a rebuild. Pinned as a known limitation.
	liveOther, err := idx.MaxMetricDrift(MetricStatParity)
	if err != nil {
		t.Fatal(err)
	}
	if !(liveOther > 0) {
		t.Fatalf("test needs a %s-drifting append; got %v", MetricStatParity, liveOther)
	}
	if d, err := back.MaxMetricDrift(MetricStatParity); err != nil || d != 0 {
		t.Errorf("reloaded %s drift %v, %v; want 0 (measured from the loaded statistics)", MetricStatParity, d, err)
	}
	armed := map[string]float64{MetricStatParity: liveOther / 2}
	for _, ix := range []*Index{idx, &back} {
		if err := ix.SetDriftThresholds(armed); err != nil {
			t.Fatal(err)
		}
	}
	if !idx.RebuildRecommended() || back.RebuildRecommended() {
		t.Errorf("RebuildRecommended with %s armed: live %v, reloaded %v; want true, false",
			MetricStatParity, idx.RebuildRecommended(), back.RebuildRecommended())
	}
}

// TestFingerprintIgnoresAppends pins the generation contract: an
// artifact's fingerprint is that of the bytes it was built or loaded
// from, whether the first Fingerprint call comes before or after an
// append. A shard server whose first request is an append must stamp
// the generation its manifest records.
func TestFingerprintIgnoresAppends(t *testing.T) {
	build, extra := splitCity(t, 460, 60)
	idx, err := Build(build, WithConfig(Config{Method: MethodFairKD, Height: 3, Seed: 2}))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := idx.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	load := func() *Index {
		ix := new(Index)
		if err := ix.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		return ix
	}
	first, appendedFirst := load(), load()
	want, err := first.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.AppendBatch(extra); err != nil {
		t.Fatal(err)
	}
	if _, err := appendedFirst.AppendBatch(extra); err != nil {
		t.Fatal(err)
	}
	for name, ix := range map[string]*Index{"fingerprinted first": first, "appended first": appendedFirst} {
		if got, err := ix.Fingerprint(); err != nil || got != want {
			t.Errorf("%s: fingerprint %d, %v; want the loaded bytes' %d", name, got, err, want)
		}
	}
	if built, err := idx.Fingerprint(); err != nil || built != want {
		t.Errorf("built index fingerprint %d, %v; want %d", built, err, want)
	}
}

func TestAppendDriftThreshold(t *testing.T) {
	build, extra := splitCity(t, 460, 60)
	idx, err := Build(build, WithConfig(Config{Method: MethodFairKD, Height: 4, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	// Unarmed: monitoring only.
	res, err := idx.AppendBatch(extra[:30])
	if err != nil {
		t.Fatal(err)
	}
	if res.RebuildRecommended || idx.RebuildRecommended() {
		t.Fatal("rebuild recommended with no armed threshold")
	}
	if res.Drift == 0 {
		t.Fatal("test needs a drift-producing append; got exactly 0")
	}
	// Arm below the current drift: the very next fold (and the live
	// accessor immediately) flips the flag.
	if err := idx.SetDriftThresholds(map[string]float64{MetricENCE: res.Drift / 2}); err != nil {
		t.Fatal(err)
	}
	if !idx.RebuildRecommended() {
		t.Error("threshold below live drift, flag not raised")
	}
	res, err = idx.AppendBatch(extra[30:])
	if err != nil {
		t.Fatal(err)
	}
	if !res.RebuildRecommended {
		t.Error("fold past the threshold did not recommend a rebuild")
	}
	// Disarm.
	if err := idx.SetDriftThresholds(map[string]float64{MetricENCE: 0}); err != nil {
		t.Fatal(err)
	}
	if idx.RebuildRecommended() {
		t.Error("disarmed index still recommends a rebuild")
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if err := idx.SetDriftThresholds(map[string]float64{MetricENCE: bad}); !errors.Is(err, ErrConfig) {
			t.Errorf("SetDriftThresholds(ence=%v) = %v, want ErrConfig", bad, err)
		}
	}
}

// TestAppendBatchAtomicity: a batch with any invalid record leaves
// the index untouched.
func TestAppendBatchAtomicity(t *testing.T) {
	build, extra := splitCity(t, 440, 40)
	idx, err := Build(build, WithConfig(Config{Method: MethodFairKD, Height: 3}))
	if err != nil {
		t.Fatal(err)
	}
	before := append([]calib.SuffStats(nil), idx.statsFor(0)...)

	bad := func(mut func(r *Record)) []Record {
		recs := make([]Record, len(extra))
		for i, r := range extra {
			r.X = append([]float64(nil), r.X...)
			r.Labels = append([]int(nil), r.Labels...)
			recs[i] = r
		}
		mut(&recs[len(recs)/2])
		return recs
	}
	cases := map[string][]Record{
		"empty":          nil,
		"nan-feature":    bad(func(r *Record) { r.X[0] = math.NaN() }),
		"bad-label":      bad(func(r *Record) { r.Labels[0] = 3 }),
		"short-features": bad(func(r *Record) { r.X = r.X[:1] }),
		"short-labels":   bad(func(r *Record) { r.Labels = nil }),
	}
	for name, recs := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := idx.AppendBatch(recs); err == nil {
				t.Fatal("invalid batch accepted")
			}
			after := idx.statsFor(0)
			for r := range before {
				if after[r] != before[r] {
					t.Fatalf("region %d stats changed after rejected batch", r)
				}
			}
			if idx.Appended() != 0 {
				t.Fatalf("Appended() = %d after rejected batches", idx.Appended())
			}
		})
	}
}

// TestAppendV1Artifact: indexes restored from pre-v2 artifacts carry
// no per-region statistics and reject appends with the same sentinel
// GroupStats uses.
func TestAppendV1Artifact(t *testing.T) {
	idx := buildV1TestIndex(t)
	blob, err := marshalBinaryV1(idx)
	if err != nil {
		t.Fatal(err)
	}
	var back Index
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	_, appendErr := back.AppendBatch([]Record{{}})
	if !errors.Is(appendErr, ErrNoRegionStats) {
		t.Errorf("AppendBatch on v1 artifact = %v, want ErrNoRegionStats", appendErr)
	}

	// Drift on a v1 task: its stored ENCE is the only value it has,
	// so ENCE reads it back with zero drift and every other metric
	// has no statistics to evaluate.
	if err := back.SetDriftThresholds(map[string]float64{MetricENCE: 1e-12, MetricStatParity: 1e-12}); err != nil {
		t.Fatal(err)
	}
	for _, task := range back.Tasks() {
		want, err := idx.Report(task)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Report(task)
		if err != nil {
			t.Fatal(err)
		}
		if got.ENCE != want.ENCE {
			t.Errorf("task %d: v1 Report ENCE %v, want stored %v", task, got.ENCE, want.ENCE)
		}
		if d, err := back.MetricDrift(task, MetricENCE); err != nil || d != 0 {
			t.Errorf("task %d: v1 ence drift = %v, %v; want 0, nil", task, d, err)
		}
		if _, err := back.MetricDrift(task, MetricStatParity); !errors.Is(err, ErrNoRegionStats) {
			t.Errorf("task %d: v1 stat_parity drift error = %v, want ErrNoRegionStats", task, err)
		}
	}
	if _, err := back.MaxMetricDrift(MetricStatParity); !errors.Is(err, ErrNoRegionStats) {
		t.Errorf("v1 MaxMetricDrift(stat_parity) error = %v, want ErrNoRegionStats", err)
	}
	if back.RebuildRecommended() {
		t.Error("v1 artifact recommends a rebuild with ence and stat_parity armed")
	}
}

// TestConcurrentAppendAndQuery drives appends and the full query
// surface concurrently; run under -race it proves the copy-on-write
// snapshot protocol. Each query must observe an internally consistent
// snapshot: the window population is a multiple of nothing in
// particular, but it must never be torn between two folds' counts for
// the same snapshot read.
func TestConcurrentAppendAndQuery(t *testing.T) {
	build, extra := splitCity(t, 600, 200)
	idx, err := Build(build, WithConfig(Config{Method: MethodFairKD, Height: 4, Seed: 5}))
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.SetDriftThresholds(map[string]float64{MetricENCE: 1e-9}); err != nil {
		t.Fatal(err)
	}
	task := idx.Tasks()[0]
	regions := make([]int, idx.NumRegions())
	for i := range regions {
		regions[i] = i
	}
	base := len(build.Records)

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	// Two appenders share the extra records in interleaved batches.
	for a := 0; a < 2; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := a * 100; i < (a+1)*100; i += 10 {
				if _, err := idx.AppendBatch(extra[i : i+10]); err != nil {
					errc <- err
					return
				}
			}
		}(a)
	}
	// Readers hammer the live surface while folds land.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ws, err := idx.GroupStats(task, regions)
				if err != nil {
					errc <- err
					return
				}
				if ws.Count < base || ws.Count > base+len(extra) {
					errc <- errors.New("window population outside [base, base+appended]")
					return
				}
				if _, err := idx.Report(task); err != nil {
					errc <- err
					return
				}
				if _, err := idx.Score(extra[i%len(extra)], task); err != nil {
					errc <- err
					return
				}
				idx.RebuildRecommended()
				idx.MaxMetricDrift(MetricENCE)
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if idx.Appended() != len(extra) {
		t.Errorf("Appended() = %d, want %d", idx.Appended(), len(extra))
	}
	// After the dust settles the fold must equal the serial recompute.
	ws, err := idx.GroupStats(task, regions)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Count != base+len(extra) {
		t.Errorf("final population %d, want %d", ws.Count, base+len(extra))
	}
}

// TestDriftExceeds pins the shared boundary predicate every layer of
// the drift control plane routes through: the crossing is inclusive,
// NaN never crosses, and non-positive thresholds are disarmed.
func TestDriftExceeds(t *testing.T) {
	cases := []struct {
		drift, threshold float64
		want             bool
	}{
		{0.02, 0.02, true},                     // exactly on the threshold: inclusive
		{0.021, 0.02, true},                    // above
		{math.Nextafter(0.02, 0), 0.02, false}, // one ulp under
		{0.5, 0, false},                        // zero threshold disarmed
		{0.5, -1, false},                       // negative threshold disarmed
		{math.NaN(), 0.02, false},              // undefined never crosses
		{0, 0.02, false},
		{math.Inf(1), 0.02, true},
	}
	for _, c := range cases {
		if got := DriftExceeds(c.drift, c.threshold); got != c.want {
			t.Errorf("DriftExceeds(%v, %v) = %v, want %v", c.drift, c.threshold, got, c.want)
		}
	}
}

// TestAppendDriftExactlyOnThreshold pins the boundary end to end: the
// same batch folded into a fresh index armed at exactly the drift it
// produces must recommend a rebuild (and one armed one ulp above must
// not) — recommendation, RebuildRecommended and the registry log all
// share DriftExceeds, so this nails all layers to the >= crossing.
func TestAppendDriftExactlyOnThreshold(t *testing.T) {
	build, extra := splitCity(t, 340, 40)
	measure, err := Build(build, WithHeight(3), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := measure.AppendBatch(extra)
	if err != nil {
		t.Fatal(err)
	}
	drift := res.Drift
	if !(drift > 0) {
		t.Fatalf("measured drift %v, need a positive drift to pin the boundary", drift)
	}

	exact, err := Build(build, WithHeight(3), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := exact.SetDriftThresholds(map[string]float64{MetricENCE: drift}); err != nil {
		t.Fatal(err)
	}
	res, err = exact.AppendBatch(extra)
	if err != nil {
		t.Fatal(err)
	}
	if !res.RebuildRecommended || !exact.RebuildRecommended() {
		t.Errorf("drift exactly on the threshold did not recommend a rebuild (drift %v)", drift)
	}

	above, err := Build(build, WithHeight(3), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := above.SetDriftThresholds(map[string]float64{MetricENCE: math.Nextafter(drift, math.Inf(1))}); err != nil {
		t.Fatal(err)
	}
	res, err = above.AppendBatch(extra)
	if err != nil {
		t.Fatal(err)
	}
	if res.RebuildRecommended || above.RebuildRecommended() {
		t.Errorf("drift one ulp under the threshold recommended a rebuild (drift %v)", drift)
	}
}

// TestShardDriftStartsAtZero pins a shard's ENCE drift baseline: the
// ENCE of the statistics the shard carries at the split, not the
// whole index's. A fresh shard has no drift and recommends no rebuild
// under any positive threshold; after an append its drift is |live −
// ENCE at the split|, and a save and reload keep that baseline.
func TestShardDriftStartsAtZero(t *testing.T) {
	build, extra := splitCity(t, 460, 60)
	// The centroid encoding keeps a record's width independent of the
	// region count, so the shard can score appended records.
	idx, err := Build(build, WithConfig(Config{Method: MethodFairKD, Height: 4, Seed: 3, Encoding: EncCentroid}))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := idx.ExtractShard(0, idx.NumRegions()/2)
	if err != nil {
		t.Fatal(err)
	}
	atSplit := make(map[int]float64)
	differs := false
	for _, task := range sh.Tasks() {
		rep, err := sh.Report(task)
		if err != nil {
			t.Fatal(err)
		}
		atSplit[task] = rep.ENCE
		whole, err := idx.Report(task)
		if err != nil {
			t.Fatal(err)
		}
		differs = differs || rep.ENCE != whole.ENCE
		if d, err := sh.MetricDrift(task, MetricENCE); err != nil || d != 0 {
			t.Errorf("task %d: fresh shard ENCE drift %v, %v; want 0", task, d, err)
		}
	}
	if !differs {
		t.Fatal("test needs a shard whose ENCE differs from the whole index's")
	}
	if err := sh.SetDriftThresholds(map[string]float64{MetricENCE: math.SmallestNonzeroFloat64}); err != nil {
		t.Fatal(err)
	}
	if sh.RebuildRecommended() {
		t.Error("fresh shard recommends a rebuild")
	}

	res, err := sh.AppendBatch(extra)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := sh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Index
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for _, td := range res.Tasks {
		want := math.Abs(td.ENCE - atSplit[td.Task])
		if want == 0 {
			t.Fatalf("task %d: test needs a drift-producing append; got exactly 0", td.Task)
		}
		if td.Drift != want {
			t.Errorf("task %d: append drift %v, want |%v − %v| = %v", td.Task, td.Drift, td.ENCE, atSplit[td.Task], want)
		}
		for name, ix := range map[string]*Index{"live": sh, "reloaded": &back} {
			if d, err := ix.MetricDrift(td.Task, MetricENCE); err != nil || d != want {
				t.Errorf("task %d: %s MetricDrift %v, %v; want %v", td.Task, name, d, err, want)
			}
		}
	}
}

// TestAppendPostProcessAllocs pins that a post-processed index scores
// an append batch without a per-record allocation: each region's Platt
// or isotonic calibrator maps its scores in place, so AppendBatch
// allocates as much for 200 records as for 50. The folded statistics
// must still equal the calibrators' slice mapping (Apply), bit for bit.
func TestAppendPostProcessAllocs(t *testing.T) {
	build, extra := splitCity(t, 1200, 500)
	for _, post := range []PostProcess{PostPlatt, PostIsotonic} {
		t.Run(post.String(), func(t *testing.T) {
			idx, err := Build(build, WithHeight(5), WithSeed(11), WithPostProcess(post))
			if err != nil {
				t.Fatal(err)
			}
			// Expected fold of the first 50 records, scored through
			// each region's calibrator Apply.
			want := append([]calib.SuffStats(nil), idx.statsFor(0)...)
			it := &idx.tasks[0]
			for _, rec := range extra[:50] {
				region, err := idx.Locate(rec.Lat, rec.Lon)
				if err != nil {
					t.Fatal(err)
				}
				row, err := dataset.EncodeRow(rec.X, region, idx.numRegions, idx.centroids, idx.encoding)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := it.model.PredictProba([][]float64{row})
				if err != nil {
					t.Fatal(err)
				}
				cal, err := it.post[region].Apply(raw)
				if err != nil {
					t.Fatal(err)
				}
				g := &want[region]
				g.Count++
				g.SumScore += cal[0]
				if rec.Labels[it.task] != 0 {
					g.SumLabel++
				}
			}
			if _, err := idx.AppendBatch(extra[:50]); err != nil {
				t.Fatal(err)
			}
			for r, st := range idx.statsFor(0) {
				if st != want[r] {
					t.Fatalf("region %d: folded %+v, Apply recompute %+v", r, st, want[r])
				}
			}

			// The row block comes from a sync.Pool, which drops Puts
			// at random under the race detector.
			if raceEnabled {
				return
			}
			allocs := func(n int) float64 {
				return testing.AllocsPerRun(5, func() {
					if _, err := idx.AppendBatch(extra[:n]); err != nil {
						t.Fatal(err)
					}
				})
			}
			if at50, at200 := allocs(50), allocs(200); at50 != at200 {
				t.Errorf("AppendBatch allocates %v times for 50 records, %v for 200", at50, at200)
			}
		})
	}
}
