package rebuild

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	fairindex "fairindex"
	"fairindex/internal/dataset"
	"fairindex/internal/geo"
	"fairindex/internal/registry"
)

// cityData generates the deterministic 340-record LA workload the
// suite shares: the serving index trains on the first 300 records,
// the last 40 drive drift, and the full set is the "fresh feed" a
// good rebuild trains on.
func cityData(t testing.TB) *dataset.Dataset {
	t.Helper()
	spec := dataset.LA()
	spec.NumRecords = 340
	all, err := dataset.Generate(spec, geo.MustGrid(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	return all
}

// buildServing trains the serving index over the first 300 records.
func buildServing(t testing.TB, all *dataset.Dataset) *fairindex.Index {
	t.Helper()
	build := &dataset.Dataset{
		Name: all.Name, Grid: all.Grid, Box: all.Box,
		FeatureNames: all.FeatureNames, TaskNames: all.TaskNames,
		Records: all.Records[:300],
	}
	idx, err := fairindex.Build(build, fairindex.WithHeight(3), fairindex.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// flipLabels returns a copy of ds with every label inverted — training
// data whose feature→label association is destroyed, so a candidate
// built from it measurably regresses the calibration metrics against
// a coherently trained serving index (the deterministic "bad feed").
func flipLabels(ds *dataset.Dataset) *dataset.Dataset {
	recs := make([]dataset.Record, len(ds.Records))
	copy(recs, ds.Records)
	for i := range recs {
		labels := make([]int, len(recs[i].Labels))
		for j, l := range recs[i].Labels {
			labels[j] = 1 - l
		}
		recs[i].Labels = labels
	}
	return &dataset.Dataset{
		Name: ds.Name, Grid: ds.Grid, Box: ds.Box,
		FeatureNames: ds.FeatureNames, TaskNames: ds.TaskNames,
		Records: recs,
	}
}

// buildFrom streams a candidate with the serving index's own recipe,
// exactly as the controller does.
func buildFrom(t testing.TB, serving *fairindex.Index, ds *dataset.Dataset) *fairindex.Index {
	t.Helper()
	cand, err := fairindex.BuildStream(fairindex.NewDatasetSource(ds), fairindex.WithConfig(serving.Config()))
	if err != nil {
		t.Fatal(err)
	}
	return cand
}

func quietLogger() *log.Logger { return log.New(io.Discard, "", 0) }

// datasetSourceFn serves every entry from the same in-memory dataset.
func datasetSourceFn(ds *dataset.Dataset) SourceFunc {
	return func(string) (fairindex.Source, func() error, error) {
		return fairindex.NewDatasetSource(ds), nil, nil
	}
}

func TestBadness(t *testing.T) {
	if got := Badness("cal_ratio", 0.9); math.Abs(got-0.1) > 1e-15 {
		t.Errorf("Badness(cal_ratio, 0.9) = %v, want 0.1", got)
	}
	if got := Badness("cal_ratio", 1.3); math.Abs(got-0.3) > 1e-15 {
		t.Errorf("Badness(cal_ratio, 1.3) = %v, want 0.3", got)
	}
	if got := Badness("ence", -0.2); got != 0.2 {
		t.Errorf("Badness(ence, -0.2) = %v, want 0.2", got)
	}
	if got := Badness("ence", math.NaN()); !math.IsNaN(got) {
		t.Errorf("Badness(ence, NaN) = %v, want NaN", got)
	}
}

// TestEvaluateVerdicts pins the gate on the two deterministic feeds:
// a coherent fresh feed promotes under the default budgets, a
// label-flipped feed regresses ENCE and is refused once the budget is
// tightened below the regression, and a zero budget evaluates without
// ever refusing.
func TestEvaluateVerdicts(t *testing.T) {
	all := cityData(t)
	serving := buildServing(t, all)
	good := buildFrom(t, serving, all)
	bad := buildFrom(t, serving, flipLabels(all))

	dec, err := Evaluate(serving, good, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Promote || dec.Refusals != nil {
		t.Fatalf("good candidate: %+v, want promote", dec)
	}
	// One probe × one task × two default metrics.
	if len(dec.Deltas) != 2 {
		t.Fatalf("deltas: %d cells, want 2", len(dec.Deltas))
	}
	for _, d := range dec.Deltas {
		if d.Probe != 0 || d.Task != 0 || d.Exceeded {
			t.Errorf("unexpected cell %+v", d)
		}
	}

	dec, err = Evaluate(serving, bad, map[string]float64{"ence": 0.001}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Promote {
		t.Fatalf("label-flipped candidate promoted: %+v", dec)
	}
	worst, ok := dec.Refusals["ence"]
	if !ok || !(worst >= 0.001) {
		t.Fatalf("refusals = %v, want ence >= budget", dec.Refusals)
	}

	// A zero budget is disarmed: the metric is evaluated and reported
	// but never refuses (same boundary contract as drift thresholds).
	dec, err = Evaluate(serving, bad, map[string]float64{"ence": 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Promote || len(dec.Deltas) != 1 || dec.Deltas[0].Exceeded {
		t.Fatalf("zero-budget evaluation: %+v, want promote with one reported cell", dec)
	}
}

// TestEvaluateBoundaryInclusive pins the promotion gate to the shared
// >= crossing: a regression landing exactly on the budget refuses,
// one epsilon under it promotes — the same DriftExceeds boundary the
// append recommendation and the registry log use.
func TestEvaluateBoundaryInclusive(t *testing.T) {
	all := cityData(t)
	serving := buildServing(t, all)
	bad := buildFrom(t, serving, flipLabels(all))

	probe, err := Evaluate(serving, bad, map[string]float64{"ence": 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	delta := probe.Deltas[0].Delta
	if !(delta > 0) {
		t.Fatalf("label-flipped candidate improved ence (delta %v); boundary test needs a regression", delta)
	}

	exact, err := Evaluate(serving, bad, map[string]float64{"ence": delta}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Promote {
		t.Errorf("delta exactly on budget promoted; the crossing is inclusive")
	}
	above, err := Evaluate(serving, bad, map[string]float64{"ence": math.Nextafter(delta, math.Inf(1))}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !above.Promote {
		t.Errorf("delta one ulp under budget refused")
	}
}

func TestEvaluateBudgetValidation(t *testing.T) {
	all := cityData(t)
	serving := buildServing(t, all)
	good := buildFrom(t, serving, all)
	for _, budgets := range []map[string]float64{
		{},
		{"no_such_metric": 0.1},
		{"ence": -0.1},
		{"ence": math.NaN()},
		{"ence": math.Inf(1)},
	} {
		if _, err := Evaluate(serving, good, budgets, nil); err == nil {
			t.Errorf("budgets %v accepted", budgets)
		}
	}
}

// TestPromoteFile pins the atomic-replace contract: the promoted file
// carries exactly the candidate's bytes, loads, and leaves no temp
// litter behind.
func TestPromoteFile(t *testing.T) {
	all := cityData(t)
	serving := buildServing(t, all)
	candidate := buildFrom(t, serving, all)
	dir := t.TempDir()
	path := filepath.Join(dir, "city.fidx")
	old, err := serving.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := PromoteFile(path, candidate); err != nil {
		t.Fatal(err)
	}
	want, err := candidate.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("promoted file differs from the candidate's serialization")
	}
	if _, err := fairindex.LoadIndex(path); err != nil {
		t.Fatalf("promoted artifact does not load: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("temp litter left in artifact dir: %v", entries)
	}
}

// TestWriteFileAtomic pins the durable-replace contract on real
// files: the new bytes replace the old ones with mode 0644 and no temp
// litter, and a write that fails (here at the fsync step) leaves the
// old file byte-identical and removes its temp file.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "city.fidx")
	old := []byte("old artifact bytes")
	if err := os.WriteFile(path, old, 0o600); err != nil {
		t.Fatal(err)
	}
	assertFile := func(want []byte) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("file holds %q, want %q", got, want)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Errorf("temp litter left in dir: %v", entries)
		}
	}

	boom := errors.New("injected fsync failure")
	syncFile = func(*os.File) error { return boom }
	err := WriteFileAtomic(path, []byte("torn"))
	syncFile = (*os.File).Sync
	if !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want the fsync error", err)
	}
	assertFile(old)

	fresh := []byte("new artifact bytes, longer than the old ones")
	if err := WriteFileAtomic(path, fresh); err != nil {
		t.Fatal(err)
	}
	assertFile(fresh)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o644 {
		t.Errorf("mode %v, want 0644", st.Mode().Perm())
	}

	if err := WriteFileAtomic(filepath.Join(dir, "missing", "x.fidx"), fresh); err == nil {
		t.Error("write into a missing directory succeeded")
	}
	assertFile(fresh)
}

// TestControllerCarriesLiveThresholds pins that a promoted candidate
// inherits the serving index's live armed drift thresholds, not the
// ones it was built with: a metric the operator disarmed stays
// disarmed across a rebuild, and one armed at runtime stays armed.
func TestControllerCarriesLiveThresholds(t *testing.T) {
	all := cityData(t)
	serving := buildServing(t, all)
	reg := registry.New(registry.WithLogger(quietLogger()))
	if err := reg.AddIndex("la", serving); err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(reg, datasetSourceFn(all), WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	rebuildWith := func(armed map[string]float64) map[string]float64 {
		t.Helper()
		cur, err := reg.Lookup("la")
		if err != nil {
			t.Fatal(err)
		}
		if err := cur.SetDriftThresholds(armed); err != nil {
			t.Fatal(err)
		}
		res, err := ctrl.Rebuild("la")
		if err != nil || res.Outcome != OutcomePromoted {
			t.Fatalf("rebuild: outcome %v err %v", res.Outcome, err)
		}
		cand, err := reg.Lookup("la")
		if err != nil {
			t.Fatal(err)
		}
		if cand == cur {
			t.Fatal("promotion did not swap in the candidate")
		}
		return cand.DriftThresholds()
	}

	if err := serving.SetDriftThresholds(map[string]float64{fairindex.MetricStatParity: 0.05}); err != nil {
		t.Fatal(err)
	}
	if got := rebuildWith(map[string]float64{}); len(got) != 0 {
		t.Errorf("disarmed serving index, candidate armed %v", got)
	}
	want := map[string]float64{fairindex.MetricStatParity: 0.05}
	if got := rebuildWith(want); len(got) != 1 || got[fairindex.MetricStatParity] != 0.05 {
		t.Errorf("candidate armed %v, want the serving set %v", got, want)
	}
}

// observerCh funnels controller completions into a channel tests can
// wait on.
type observed struct {
	name string
	res  Result
	err  error
}

func observerCh(ch chan observed) Option {
	return WithObserver(func(name string, res Result, err error) {
		ch <- observed{name, res, err}
	})
}

func waitObserved(t *testing.T, ch chan observed) observed {
	t.Helper()
	select {
	case o := <-ch:
		return o
	case <-time.After(30 * time.Second):
		t.Fatal("no rebuild completion observed")
		return observed{}
	}
}

// TestControllerDriftToPromotion is the continuous loop end to end:
// an armed registry entry drifts past its threshold, the hook kicks
// the controller, the candidate passes the gate, the artifact is
// atomically replaced on disk and the new generation swaps in — and
// because installed() re-arms driftNotified, a second drift on the
// PROMOTED generation fires the hook and promotes again.
func TestControllerDriftToPromotion(t *testing.T) {
	all := cityData(t)
	serving := buildServing(t, all)
	extra := all.Records[300:]
	dir := t.TempDir()
	path := filepath.Join(dir, "la.fidx")
	blob, err := serving.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := registry.New(registry.WithLogger(quietLogger()),
		registry.WithDriftThresholds(map[string]float64{fairindex.MetricENCE: 1e-12}))
	if err := reg.Add("la", path); err != nil {
		t.Fatal(err)
	}
	events := make(chan observed, 4)
	ctrl, err := New(reg, datasetSourceFn(all),
		WithLogger(quietLogger()), observerCh(events))
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	ctrl.Bind()

	if _, err := reg.Append("la", extra[:20]); err != nil {
		t.Fatal(err)
	}
	ob := waitObserved(t, events)
	if ob.err != nil || ob.res.Outcome != OutcomePromoted {
		t.Fatalf("first drift rebuild: outcome %v err %v", ob.res.Outcome, ob.err)
	}
	if ob.res.Path != path {
		t.Errorf("promotion path %q, want %q", ob.res.Path, path)
	}

	// The artifact on disk is now the candidate, and the serving
	// entry is the freshly built generation with no folds.
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, blob) {
		t.Error("artifact bytes unchanged after promotion")
	}
	idx, err := reg.Lookup("la")
	if err != nil {
		t.Fatal(err)
	}
	if idx.Appended() != 0 {
		t.Errorf("promoted generation has %d folds, want 0", idx.Appended())
	}
	st := ctrl.Status("la")
	if st.State != StatePromoted || st.LastPromoted.IsZero() || st.LastErr != "" {
		t.Errorf("status after promotion: %+v", st)
	}

	// Drift the NEW generation: the hook must fire again (re-armed by
	// the swap) and promote a second time.
	if _, err := reg.Append("la", extra); err != nil {
		t.Fatal(err)
	}
	ob = waitObserved(t, events)
	if ob.err != nil || ob.res.Outcome != OutcomePromoted {
		t.Fatalf("second drift rebuild: outcome %v err %v", ob.res.Outcome, ob.err)
	}
}

// TestControllerRefusalLeavesServingUntouched is the gate's e2e: a
// candidate built from a regressing feed is refused, the serving
// artifact is byte-identical before and after, the resident index
// keeps serving the same generation (folds intact), and no candidate
// artifact is left anywhere.
func TestControllerRefusalLeavesServingUntouched(t *testing.T) {
	all := cityData(t)
	serving := buildServing(t, all)
	dir := t.TempDir()
	path := filepath.Join(dir, "la.fidx")
	blob, err := serving.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := registry.New(registry.WithLogger(quietLogger()))
	if err := reg.Add("la", path); err != nil {
		t.Fatal(err)
	}
	before, err := reg.Lookup("la")
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(reg, datasetSourceFn(flipLabels(all)),
		WithBudgets(map[string]float64{"ence": 0.001}),
		WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	res, err := ctrl.Rebuild("la")
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeRefused || res.Decision.Promote {
		t.Fatalf("result %+v, want refused", res)
	}
	if res.Path != "" {
		t.Errorf("refusal reports a promotion path %q", res.Path)
	}

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Error("serving artifact bytes changed by a refused rebuild")
	}
	after, err := reg.Lookup("la")
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Error("serving index generation swapped by a refused rebuild")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("candidate litter after refusal: %v", entries)
	}
	st := ctrl.Status("la")
	if st.State != StateRefused || len(st.RefusalDeltas) == 0 {
		t.Errorf("status after refusal: %+v", st)
	}
	if _, ok := st.RefusalDeltas["ence"]; !ok {
		t.Errorf("refusal deltas %v missing ence", st.RefusalDeltas)
	}
}

// TestControllerBuildFailureBackoff pins the retry machinery: failed
// candidate builds wrap ErrBuild, consecutive attempts back off
// exponentially, and a later success resets the attempt counter.
func TestControllerBuildFailureBackoff(t *testing.T) {
	all := cityData(t)
	serving := buildServing(t, all)
	reg := registry.New(registry.WithLogger(quietLogger()))
	if err := reg.AddIndex("la", serving); err != nil {
		t.Fatal(err)
	}

	var fail = make(chan bool, 16)
	source := func(string) (fairindex.Source, func() error, error) {
		if <-fail {
			return nil, nil, errors.New("feed offline")
		}
		return fairindex.NewDatasetSource(all), nil, nil
	}
	events := make(chan observed, 16)
	ctrl, err := New(reg, source,
		WithBackoff(10*time.Millisecond, 40*time.Millisecond),
		WithLogger(quietLogger()), observerCh(events))
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	// Two failures, then success — all driven by the backoff retries
	// of the single initial kick.
	fail <- true
	fail <- true
	fail <- false
	if !ctrl.Kick("la") {
		t.Fatal("kick refused")
	}

	ob := waitObserved(t, events)
	if !errors.Is(ob.err, ErrBuild) {
		t.Fatalf("first failure: %v, want ErrBuild", ob.err)
	}
	st := ctrl.Status("la")
	if st.State != StateFailed || st.Attempts != 1 || st.NextRetry.IsZero() {
		t.Errorf("status after first failure: %+v", st)
	}
	if ob = waitObserved(t, events); !errors.Is(ob.err, ErrBuild) {
		t.Fatalf("second failure: %v, want ErrBuild", ob.err)
	}
	ob = waitObserved(t, events)
	if ob.err != nil || ob.res.Outcome != OutcomePromoted {
		t.Fatalf("retry after failures: outcome %v err %v", ob.res.Outcome, ob.err)
	}
	st = ctrl.Status("la")
	if st.State != StatePromoted || st.Attempts != 0 || st.LastErr != "" || !st.NextRetry.IsZero() {
		t.Errorf("status after recovery: %+v", st)
	}
}

// TestControllerSingleFlight pins one-rebuild-per-name: concurrent
// kicks coalesce and a synchronous Rebuild reports ErrInFlight while
// a build is running.
func TestControllerSingleFlight(t *testing.T) {
	all := cityData(t)
	serving := buildServing(t, all)
	reg := registry.New(registry.WithLogger(quietLogger()))
	if err := reg.AddIndex("la", serving); err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	source := func(string) (fairindex.Source, func() error, error) {
		<-release
		return fairindex.NewDatasetSource(all), nil, nil
	}
	events := make(chan observed, 4)
	ctrl, err := New(reg, source, WithLogger(quietLogger()), observerCh(events))
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	if !ctrl.Kick("la") {
		t.Fatal("first kick refused")
	}
	if ctrl.Kick("la") {
		t.Error("second kick did not coalesce")
	}
	if _, err := ctrl.Rebuild("la"); !errors.Is(err, ErrInFlight) {
		t.Errorf("Rebuild during flight: %v, want ErrInFlight", err)
	}
	if st := ctrl.Status("la"); st.State != StateBuilding {
		t.Errorf("state during flight: %q", st.State)
	}
	close(release)
	if ob := waitObserved(t, events); ob.err != nil || ob.res.Outcome != OutcomePromoted {
		t.Fatalf("coalesced rebuild: outcome %v err %v", ob.res.Outcome, ob.err)
	}
}

// TestControllerSchemaMismatch pins the pre-flight: a feed whose
// columns drifted fails as a build error before any expensive work.
func TestControllerSchemaMismatch(t *testing.T) {
	all := cityData(t)
	serving := buildServing(t, all)
	reg := registry.New(registry.WithLogger(quietLogger()))
	if err := reg.AddIndex("la", serving); err != nil {
		t.Fatal(err)
	}
	renamed := &dataset.Dataset{
		Name: all.Name, Grid: all.Grid, Box: all.Box,
		FeatureNames: append([]string{"renamed"}, all.FeatureNames[1:]...),
		TaskNames:    all.TaskNames,
		Records:      all.Records,
	}
	ctrl, err := New(reg, datasetSourceFn(renamed),
		WithBackoff(time.Hour, time.Hour), WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	_, err = ctrl.Rebuild("la")
	if !errors.Is(err, ErrBuild) || !strings.Contains(err.Error(), "renamed") {
		t.Fatalf("schema mismatch: %v, want ErrBuild naming the column", err)
	}
}

// TestControllerUnknownEntry: a kick for a name the registry does not
// hold fails without retry (not a build error).
func TestControllerUnknownEntry(t *testing.T) {
	reg := registry.New(registry.WithLogger(quietLogger()))
	ctrl, err := New(reg, datasetSourceFn(nil), WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if _, err := ctrl.Rebuild("nope"); err == nil || errors.Is(err, ErrBuild) {
		t.Fatalf("unknown entry: %v, want a non-build error", err)
	}
	if st := ctrl.Status("nope"); st.State != StateFailed || !st.NextRetry.IsZero() {
		t.Errorf("status: %+v, want failed without retry", st)
	}
}

func TestControllerOptionValidation(t *testing.T) {
	reg := registry.New(registry.WithLogger(quietLogger()))
	src := datasetSourceFn(nil)
	if _, err := New(nil, src); err == nil {
		t.Error("nil registry accepted")
	}
	if _, err := New(reg, nil); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := New(reg, src, WithBudgets(map[string]float64{"bogus": 1})); err == nil {
		t.Error("unknown budget metric accepted")
	}
	if _, err := New(reg, src, WithBackoff(-time.Second, time.Second)); err == nil {
		t.Error("negative backoff accepted")
	}
	if _, err := New(reg, src, WithBackoff(time.Second, time.Millisecond)); err == nil {
		t.Error("max < base backoff accepted")
	}
}

func TestBackoffSchedule(t *testing.T) {
	c := &Controller{base: time.Second, max: 10 * time.Second}
	want := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second, 10 * time.Second, 10 * time.Second}
	for i, w := range want {
		if got := c.backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestOutcomeString(t *testing.T) {
	if fmt.Sprint(OutcomePromoted) != "promoted" || fmt.Sprint(OutcomeRefused) != "refused" {
		t.Error("outcome strings")
	}
}
