package fairindex

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"fairindex/internal/calib"
	"fairindex/internal/dataset"
)

// maintState carries the mutable maintenance side of an Index: the
// live per-region sufficient statistics (with appended records folded
// in) and the armed drift thresholds. It hangs off the Index behind a
// pointer so Index values stay copyable, and publishes every fold as
// a fresh immutable snapshot behind an atomic pointer — queries read
// lock-free while AppendBatch serializes writers on mu.
type maintState struct {
	mu  sync.Mutex
	cur atomic.Pointer[liveStats]
	// thresholds holds the armed per-metric drift thresholds as an
	// immutable map behind an atomic pointer (SetDriftThresholds
	// replaces the whole map); ENCE is the calib.MetricENCE key.
	thresholds atomic.Pointer[map[string]float64]
	// Fingerprint cache (shard.go): the artifact's content hash,
	// computed once per built/loaded Index, on the first Fingerprint
	// call or before the first AppendBatch fold, whichever is first.
	// loaded holds the canonical bytes ReadIndex decoded until that
	// first hash, which reads and drops them.
	fpOnce sync.Once
	fp     uint64
	fpErr  error
	loaded []byte
}

// liveStats is one immutable maintenance snapshot. AppendBatch never
// mutates a published snapshot; it copies, folds and swaps.
type liveStats struct {
	// stats holds the live per-region sufficient statistics per task
	// slot; a nil slot marks an artifact that predates region stats
	// (v1) and cannot accept appends.
	stats [][]calib.SuffStats
	// appended counts records folded since the Index was built or
	// loaded. It is runtime observability, not serialized: the folded
	// statistics themselves persist through MarshalBinary.
	appended int
}

// initMaint publishes the initial maintenance snapshot over the
// build- or load-time per-region statistics, with nothing armed.
func (ix *Index) initMaint() {
	ls := &liveStats{stats: make([][]calib.SuffStats, len(ix.tasks))}
	for i := range ix.tasks {
		// Share the baseline slice; folds are copy-on-write.
		ls.stats[i] = ix.tasks[i].stats
	}
	m := &maintState{}
	m.cur.Store(ls)
	m.thresholds.Store(&map[string]float64{})
	ix.maint = m
}

// live returns the current maintenance snapshot (nil only for Index
// values that never went through Build/UnmarshalBinary).
func (ix *Index) live() *liveStats {
	if ix.maint == nil {
		return nil
	}
	return ix.maint.cur.Load()
}

// statsFor returns the live per-region statistics for a task slot,
// falling back to the build-time snapshot when no maintenance state
// exists.
func (ix *Index) statsFor(slot int) []calib.SuffStats {
	if ls := ix.live(); ls != nil {
		return ls.stats[slot]
	}
	return ix.tasks[slot].stats
}

// driftThresholds reads the armed per-metric threshold map (shared,
// treat as immutable; empty for an index with nothing armed).
func (ix *Index) driftThresholds() map[string]float64 {
	if ix.maint == nil {
		return nil
	}
	if p := ix.maint.thresholds.Load(); p != nil {
		return *p
	}
	return nil
}

// TaskDrift is one task's live calibration state after a fold. The
// legacy ENCE/Drift fields always carry the ENCE view; Metrics and
// Drifts additionally report every monitored metric (ENCE plus any
// metric armed via SetDriftThresholds) by name.
type TaskDrift struct {
	Task  int
	ENCE  float64 // live ENCE over build-time + appended records
	Drift float64 // |ENCE − build-time ENCE|
	// Metrics holds the live value of each monitored metric over the
	// task's full region set.
	Metrics map[string]float64
	// Drifts holds |live − baseline| per monitored metric, with the
	// baseline MetricDrift defines. A NaN drift (a metric undefined on
	// either side, e.g. cal_ratio with no positives) never triggers a
	// rebuild recommendation.
	Drifts map[string]float64
}

// AppendResult summarizes one AppendBatch fold.
type AppendResult struct {
	Appended int         // records folded by this call
	Total    int         // records folded since the Index was built or loaded
	Tasks    []TaskDrift // live state per task, in Tasks() order
	Drift    float64     // maximum task ENCE drift
	// Drifts holds the maximum per-task drift of each monitored
	// metric (always including "ence", which mirrors Drift).
	Drifts map[string]float64
	// RebuildRecommended reports whether any armed metric's drift
	// crossed its threshold (always false while nothing is armed).
	RebuildRecommended bool
}

// AppendBatch folds a batch of new records into the index's live
// per-region statistics: each record is located, scored through the
// task models (and any post-processing calibrators — the same serving
// path Score uses) and added to its region's additive sufficient
// statistics. GroupStats, Report's ENCE and MarshalBinary all observe
// the fold immediately and exactly — the statistics are additive, so
// a fold equals a from-scratch recompute over the grown dataset with
// the same frozen models (see docs/STREAMING.md for the exactness
// boundary). The partition and the models themselves never change;
// the returned drift tells the caller when retraining is worth it.
//
// Records must carry a full feature vector and one 0/1 label per
// index task. On any invalid record the whole batch is rejected and
// the index is unchanged. AppendBatch is safe for concurrent use with
// all queries and with itself; concurrent appenders serialize.
// Indexes restored from pre-v2 artifacts have no statistics to fold
// into and return ErrNoRegionStats.
func (ix *Index) AppendBatch(recs []Record) (AppendResult, error) {
	if len(recs) == 0 {
		return AppendResult{}, fmt.Errorf("fairindex: append: empty batch")
	}
	if ix.maint == nil {
		return AppendResult{}, fmt.Errorf("fairindex: append: %w", ErrNoRegionStats)
	}
	for i := range ix.tasks {
		if ix.tasks[i].stats == nil {
			return AppendResult{}, fmt.Errorf("fairindex: append: %w", ErrNoRegionStats)
		}
	}

	// Validate, locate and score outside the lock: the models,
	// calibrators and partition are immutable, so the critical
	// section below is only the fold itself.
	n := len(recs)
	regions := make([]int, n)
	for i := range recs {
		rec := &recs[i]
		if len(rec.X) != len(ix.featureNames) {
			return AppendResult{}, fmt.Errorf("fairindex: append record %d: %d features, index was built on %d",
				i, len(rec.X), len(ix.featureNames))
		}
		if len(rec.Labels) != len(ix.taskNames) {
			return AppendResult{}, fmt.Errorf("fairindex: append record %d: %d labels, index was built on %d tasks",
				i, len(rec.Labels), len(ix.taskNames))
		}
		for j, x := range rec.X {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return AppendResult{}, fmt.Errorf("fairindex: append record %d feature %d: %w: %v",
					i, j, dataset.ErrBadValue, x)
			}
		}
		for j, y := range rec.Labels {
			if y != 0 && y != 1 {
				return AppendResult{}, fmt.Errorf("fairindex: append record %d task %d: %w: %d",
					i, j, dataset.ErrBadLabel, y)
			}
		}
		region, err := ix.Locate(rec.Lat, rec.Lon)
		if err != nil {
			return AppendResult{}, fmt.Errorf("fairindex: append record %d: %w", i, err)
		}
		regions[i] = region
	}
	scores, err := ix.scoreBatch("append", ix.tasks, recs, regions)
	if err != nil {
		return AppendResult{}, err
	}

	// Pin the generation before the first fold publishes: the
	// fingerprint hashes the serialized live statistics, so taking it
	// lazily after a fold would identify the folded state instead of
	// the built or loaded artifact. An error stays cached for later
	// Fingerprint callers.
	_, _ = ix.Fingerprint()
	m := ix.maint
	m.mu.Lock()
	old := m.cur.Load()
	next := &liveStats{
		stats:    make([][]calib.SuffStats, len(old.stats)),
		appended: old.appended + n,
	}
	for k := range old.stats {
		// Copy-on-write: in-flight readers keep their snapshot. The
		// fold accumulates in record order, matching calib.GroupBy
		// over the grown dataset bit for bit.
		st := append([]calib.SuffStats(nil), old.stats[k]...)
		col := ix.tasks[k].task
		for i := range recs {
			g := &st[regions[i]]
			g.Count++
			g.SumScore += scores[k][i]
			if recs[i].Labels[col] != 0 {
				g.SumLabel++
			}
		}
		next.stats[k] = st
	}
	m.cur.Store(next)
	m.mu.Unlock()
	return ix.appendResult(n, next), nil
}

// scoreChunk bounds how many records scoreBatch encodes at once: a
// one-hot row is as wide as the index has regions.
const scoreChunk = 256

// rowBlocks recycles scoreBatch's row scratch across calls: at a
// one-hot width a block of rows is a large object, which would be
// allocated and zeroed on every call.
var rowBlocks = sync.Pool{New: func() any { return new([]float64) }}

// scoreBatch scores every record, located to regions[i], under each
// of tasks — all of ix.tasks for AppendBatch, the one asked for by
// Score: scores[k][i] is the score under tasks[k]. The models score
// each row on its own, so a record's score does not depend on the
// batch around it. The rows are encoded into one pooled scratch block
// reused chunk by chunk, so a batch allocates per task and chunk, not
// per record; a region's post-processing calibrator maps each score in
// place. Errors name the operation op and the record.
func (ix *Index) scoreBatch(op string, tasks []indexTask, recs []Record, regions []int) ([][]float64, error) {
	n := len(recs)
	width, err := dataset.RowWidth(len(ix.featureNames), ix.numRegions, ix.centroids, ix.encoding)
	if err != nil {
		return nil, fmt.Errorf("fairindex: %s: %w", op, err)
	}
	rows := make([][]float64, min(n, scoreChunk))
	block := rowBlocks.Get().(*[]float64)
	defer rowBlocks.Put(block)
	if cap(*block) < len(rows)*width {
		*block = make([]float64, len(rows)*width)
	}
	// Stale values from an earlier batch are harmless: EncodeRowInto
	// writes every column of a row.
	backing := (*block)[:len(rows)*width]
	for j := range rows {
		rows[j] = backing[j*width : (j+1)*width : (j+1)*width]
	}
	scores := make([][]float64, len(tasks))
	all := make([]float64, len(tasks)*n)
	for k := range scores {
		scores[k] = all[k*n : (k+1)*n : (k+1)*n]
	}
	for lo := 0; lo < n; lo += len(rows) {
		chunk := rows[:min(len(rows), n-lo)]
		for j, row := range chunk {
			i := lo + j
			if err := dataset.EncodeRowInto(row, recs[i].X, regions[i], ix.numRegions, ix.centroids, ix.encoding); err != nil {
				return nil, fmt.Errorf("fairindex: %s record %d: %w", op, i, err)
			}
		}
		for k := range tasks {
			it := &tasks[k]
			s, err := it.model.PredictProba(chunk)
			if err != nil {
				return nil, fmt.Errorf("fairindex: %s records %d-%d: %w", op, lo, lo+len(chunk)-1, err)
			}
			if it.post != nil {
				for j := range s {
					if s[j], err = it.post[regions[lo+j]].Calibrate(s[j]); err != nil {
						return nil, fmt.Errorf("fairindex: %s record %d: %w", op, lo+j, err)
					}
				}
			}
			copy(scores[k][lo:], s)
		}
	}
	return scores, nil
}

// DriftExceeds is the single boundary predicate of the drift control
// plane: it reports whether a measured drift (or a candidate-versus-
// serving regression) crosses an armed threshold (or promotion
// budget). The crossing is inclusive — a drift landing exactly on the
// threshold triggers — NaN (the metric-undefined sentinel, see
// docs/METRICS.md) never crosses, and non-positive thresholds are
// disarmed. AppendBatch's rebuild recommendation, RebuildRecommended,
// the registry's drift log line and the rebuild controller's
// promotion gate (internal/rebuild) all route through this predicate,
// so the exactly-on-threshold behavior cannot diverge across layers.
func DriftExceeds(drift, threshold float64) bool {
	return threshold > 0 && !math.IsNaN(drift) && drift >= threshold
}

// monitoredMetrics returns the metrics a drift report covers: ENCE
// (always) plus every armed threshold metric, sorted by name for
// deterministic report order.
func (ix *Index) monitoredMetrics() []calib.Metric {
	thr := ix.driftThresholds()
	ence, _ := calib.MetricByName(calib.MetricENCE)
	mets := make([]calib.Metric, 0, len(thr)+1)
	mets = append(mets, ence)
	for name := range thr {
		if name != calib.MetricENCE {
			// SetDriftThresholds arms only registered names, and a
			// registration is never removed.
			m, _ := calib.MetricByName(name)
			mets = append(mets, m)
		}
	}
	slices.SortFunc(mets, func(a, b calib.Metric) int { return strings.Compare(a.Name(), b.Name()) })
	return mets
}

// metricValues computes one metric's live value for a task slot over
// one live snapshot's statistics, and its drift |live − baseline|.
// ENCE's baseline is the stored report value, the only baseline the
// artifact keeps, so ENCE drift survives a save and reload; every
// other metric's baseline is the metric over the statistics the index
// was built or loaded with. A task without statistics (a v1 artifact)
// has only its stored ENCE: zero drift for ENCE, ErrNoRegionStats for
// any other metric.
func (ix *Index) metricValues(m calib.Metric, slot int, ls *liveStats) (live, drift float64, err error) {
	it := &ix.tasks[slot]
	isENCE := m.Name() == calib.MetricENCE
	if it.stats == nil {
		if isENCE {
			return it.report.ENCE, 0, nil
		}
		return 0, 0, ErrNoRegionStats
	}
	live = m.Compute(ls.stats[slot])
	base := it.report.ENCE
	if !isENCE {
		base = m.Compute(it.stats)
	}
	return live, math.Abs(live - base), nil
}

// appendResult assembles the drift report for one published snapshot.
func (ix *Index) appendResult(n int, ls *liveStats) AppendResult {
	monitored := ix.monitoredMetrics()
	res := AppendResult{Appended: n, Total: ls.appended, Drifts: make(map[string]float64, len(monitored))}
	for k := range ix.tasks {
		td := TaskDrift{
			Task:    ix.tasks[k].task,
			Metrics: make(map[string]float64, len(monitored)),
			Drifts:  make(map[string]float64, len(monitored)),
		}
		for _, m := range monitored {
			// Every task of a folded index has statistics, so no
			// metric fails here.
			live, d, _ := ix.metricValues(m, k, ls)
			name := m.Name()
			td.Metrics[name], td.Drifts[name] = live, d
			// NaN (a metric undefined on either side) never displaces
			// the running max; any defined drift — including 0 — makes
			// the monitored metric show up in the report.
			if !math.IsNaN(d) {
				if cur, ok := res.Drifts[name]; !ok || d > cur {
					res.Drifts[name] = d
				}
			}
		}
		td.ENCE, td.Drift = td.Metrics[calib.MetricENCE], td.Drifts[calib.MetricENCE]
		res.Tasks = append(res.Tasks, td)
	}
	res.Drift = res.Drifts[calib.MetricENCE]
	thr := ix.driftThresholds()
	for name, t := range thr {
		if d, ok := res.Drifts[name]; ok && DriftExceeds(d, t) {
			res.RebuildRecommended = true
		}
	}
	return res
}

// Appended returns how many records AppendBatch has folded into this
// Index since it was built or loaded. It resets to 0 on reload; the
// folded statistics themselves persist through MarshalBinary.
func (ix *Index) Appended() int {
	if ls := ix.live(); ls != nil {
		return ls.appended
	}
	return 0
}

// MetricDrift returns one task's drift under a named registered
// metric: |metric over live statistics − metric over the statistics
// the index was built or loaded with|. For "ence" the baseline is the
// stored build-time ENCE, the value TaskDrift.Drift measures against;
// the artifact stores that baseline, so only ENCE drift survives a
// save and reload. A NaN result means the metric is undefined on at
// least one side (e.g. cal_ratio with no positives); NaN drift never
// triggers a rebuild recommendation.
// Indexes restored from pre-v2 artifacts carry no statistics for
// non-ENCE metrics and fail with ErrNoRegionStats.
func (ix *Index) MetricDrift(task int, metric string) (float64, error) {
	slot, err := ix.taskSlot(task)
	if err != nil {
		return 0, err
	}
	m, err := resolveDriftMetric(metric)
	if err != nil {
		return 0, err
	}
	_, d, err := ix.metricValues(m, slot, ix.live())
	return d, err
}

// MaxMetricDrift returns the largest per-task drift under a named
// metric (NaN per-task drifts are skipped).
func (ix *Index) MaxMetricDrift(metric string) (float64, error) {
	m, err := resolveDriftMetric(metric)
	if err != nil {
		return 0, err
	}
	return ix.maxDrift(m, ix.live())
}

// resolveDriftMetric looks up a metric named in a drift query.
func resolveDriftMetric(name string) (calib.Metric, error) {
	m, ok := calib.MetricByName(name)
	if !ok {
		return nil, fmt.Errorf("%w: unknown metric %q (registered: %v)", ErrQuery, name, calib.MetricNames())
	}
	return m, nil
}

// maxDrift returns a metric's largest per-task drift over one live
// snapshot, skipping NaN drifts.
func (ix *Index) maxDrift(m calib.Metric, ls *liveStats) (float64, error) {
	var out float64
	for slot := range ix.tasks {
		_, d, err := ix.metricValues(m, slot, ls)
		if err != nil {
			return 0, err
		}
		if !math.IsNaN(d) && d > out {
			out = d
		}
	}
	return out, nil
}

// DriftThresholds returns a copy of the armed per-metric thresholds
// (empty when nothing is armed).
func (ix *Index) DriftThresholds() map[string]float64 {
	cur := ix.driftThresholds()
	out := make(map[string]float64, len(cur))
	for name, t := range cur {
		out[name] = t
	}
	return out
}

// SetDriftThresholds replaces the whole armed threshold set: each
// entry arms the rebuild recommendation on that metric's drift
// crossing the threshold. Metric names must be registered; values
// must be finite and non-negative, with 0 disarming the metric. An
// empty (or nil) map disarms everything. ENCE is the "ence" entry;
// to change one metric, edit a DriftThresholds copy and set it back.
// Thresholds are runtime policy: a built or loaded Index starts with
// nothing armed, and neither the artifact nor Config carries them.
// Safe for concurrent use with appends and queries.
func (ix *Index) SetDriftThresholds(thresholds map[string]float64) error {
	next := make(map[string]float64, len(thresholds))
	for name, t := range thresholds {
		if _, ok := calib.MetricByName(name); !ok {
			return fmt.Errorf("%w: unknown drift metric %q (registered: %v)", ErrConfig, name, calib.MetricNames())
		}
		if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
			return fmt.Errorf("%w: drift threshold %v for metric %q", ErrConfig, t, name)
		}
		if t > 0 {
			next[name] = t
		}
	}
	if ix.maint != nil {
		ix.maint.thresholds.Store(&next)
	}
	return nil
}

// RebuildRecommended reports whether any armed metric's live drift
// has crossed its threshold — the signal that enough appended records
// diverge from the build-time calibration to make retraining
// worthwhile.
func (ix *Index) RebuildRecommended() bool {
	ls := ix.live()
	for name, thr := range ix.driftThresholds() {
		m, _ := calib.MetricByName(name) // armed names are registered
		d, err := ix.maxDrift(m, ls)
		if err == nil && DriftExceeds(d, thr) {
			return true
		}
	}
	return false
}
