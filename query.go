package fairindex

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"fairindex/internal/calib"
)

// This file is the Index's region-query vocabulary and fairness
// aggregates: the result types of range queries over a geographic
// window and k-nearest-region queries (both answered by the Layout,
// layout.go), and GroupStats over arbitrary region sets. Point lookups
// answer "which neighborhood is this coordinate in?"; these answer
// the FiSH-style workload "which neighborhoods does this window touch,
// and is the model fair over them?".

// Query errors.
var (
	// ErrQuery reports a malformed query argument (non-finite or
	// inverted rectangle, non-finite point, non-positive k, bad region
	// id).
	ErrQuery = errors.New("fairindex: invalid query")
	// ErrNoRegionStats reports a GroupStats call on an index that does
	// not carry per-region calibration statistics — an artifact
	// serialized before the v2 format. Rebuild (or re-save) the index
	// to enable fairness aggregation.
	ErrNoRegionStats = errors.New("fairindex: index carries no per-region stats (pre-v2 artifact)")
)

// RegionOverlap reports one region intersecting a range query: how
// many of its grid cells fall inside the query window and which
// fraction of the region that is (1.0 = fully contained).
type RegionOverlap struct {
	Region   int     // neighborhood id
	Cells    int     // cells of the region inside the window
	Fraction float64 // Cells / total cells of the region, in (0, 1]
}

// RegionDistance reports one region of a NearestRegions result.
type RegionDistance struct {
	Region   int     // neighborhood id
	Distance float64 // planar Euclidean centroid distance, in degrees
}

// RegionStat is one region's build-time calibration summary inside a
// WindowStats aggregate, computed from the stored sufficient
// statistics of the final (post-processed) model over the full
// dataset.
type RegionStat struct {
	Region   int
	Count    int     // population
	MeanConf float64 // e(N): mean predicted score
	PosRate  float64 // o(N): empirical positive rate
	Miscal   float64 // |e − o|
	CalRatio float64 // e/o (Eq. 2); NaN when the region has no positives
	// SumScore and SumLabel are the region's raw additive sufficient
	// statistics (Σ score, Σ label). Together with Count they fully
	// determine every derived field above, which is what lets
	// MergeWindowStats rebuild an exact window aggregate from
	// per-region stats collected across index shards.
	SumScore float64
	SumLabel float64
}

// WindowStats aggregates the stored per-region calibration report
// over a set of regions (a "query window") for one task. Sums are
// exact: the index stores additive sufficient statistics per region,
// so any window aggregate matches what a full re-evaluation over
// those regions' records would produce.
type WindowStats struct {
	Task     int
	Count    int          // total population of the window
	MeanConf float64      // e over the window (0 when empty)
	PosRate  float64      // o over the window (0 when empty)
	Miscal   float64      // |e − o| over the window
	CalRatio float64      // e/o over the window; NaN when no positives
	ENCE     float64      // Definition 3 restricted to the window's regions
	Regions  []RegionStat // per-region detail, ascending region id
	// Metrics holds the selected fairness metrics over the window,
	// keyed by registered metric name. GroupStatsMetrics populates it;
	// the legacy GroupStats leaves it nil. The legacy ENCE and
	// CalRatio fields above are always populated either way and keep
	// their historical bit-exact computation.
	Metrics map[string]float64
}

// GroupStats aggregates the stored per-region calibration report over
// a set of regions for one task: the FiSH-style "is this window
// fair?" audit. The region list must hold distinct in-range ids —
// typically the regions returned by RangeQuery or NearestRegions.
// Empty regions contribute zero weight; an empty window returns
// all-zero aggregates (CalRatio NaN).
//
// The aggregate is exact, not approximate: the index stores each
// region's additive sufficient statistics (population, Σ score,
// Σ label) from the final post-processed model over the full dataset.
// Note that RangeQuery windows cut regions at cell granularity while
// stats cover whole regions — a region partially inside the window
// contributes its entire population (see docs/QUERIES.md for the
// fairness caveats).
//
// Indexes serialized before the v2 format carry no per-region stats;
// GroupStats then fails with ErrNoRegionStats.
func (ix *Index) GroupStats(task int, regions []int) (WindowStats, error) {
	slot, err := ix.taskSlot(task)
	if err != nil {
		return WindowStats{}, err
	}
	// Read the live statistics snapshot: AppendBatch folds are
	// observed immediately and exactly, and the atomic snapshot makes
	// the whole window internally consistent even against concurrent
	// appends.
	stats := ix.statsFor(slot)
	if stats == nil {
		return WindowStats{}, ErrNoRegionStats
	}
	ids, window, err := ix.windowSlices(stats, regions)
	if err != nil {
		return WindowStats{}, err
	}
	return foldWindow(task, ids, window), nil
}

// GroupStatsMetrics is GroupStats with explicit fairness-metric
// selection: alongside the legacy aggregate fields it evaluates each
// named registered metric (see RegisterMetric and docs/METRICS.md)
// over the window's per-region sufficient statistics and returns the
// values in WindowStats.Metrics. With no names it evaluates every
// registered metric. All metrics and the legacy fields are computed
// from one atomic statistics snapshot, so the whole result is
// internally consistent under concurrent appends. Unknown metric
// names are an error wrapping ErrQuery.
func (ix *Index) GroupStatsMetrics(task int, regions []int, names ...string) (WindowStats, error) {
	return windowMetrics(task, names, func() ([]int, []calib.SuffStats, error) {
		slot, err := ix.taskSlot(task)
		if err != nil {
			return nil, nil, err
		}
		stats := ix.statsFor(slot)
		if stats == nil {
			return nil, nil, ErrNoRegionStats
		}
		return ix.windowSlices(stats, regions)
	})
}

// windowMetrics is the metric-evaluation step GroupStatsMetrics and
// MergeWindowStatsMetrics share: it resolves the named metrics (every
// registered metric when names is empty; an unknown name wraps
// ErrQuery) before gathering the window, folds the legacy aggregate
// and evaluates each metric over the window's per-region statistics,
// one entry per region in ascending id order, matching out.Regions.
func windowMetrics(task int, names []string, gather func() ([]int, []calib.SuffStats, error)) (WindowStats, error) {
	if len(names) == 0 {
		names = Metrics()
	}
	mets, err := calib.ResolveMetrics(names)
	if err != nil {
		return WindowStats{}, fmt.Errorf("%w: %v", ErrQuery, err)
	}
	ids, window, err := gather()
	if err != nil {
		return WindowStats{}, err
	}
	out := foldWindow(task, ids, window)
	out.Metrics = make(map[string]float64, len(mets))
	for _, m := range mets {
		out.Metrics[m.Name()] = m.Compute(window)
	}
	return out, nil
}

// windowSlices validates a query's region list and resolves it against
// a statistics snapshot into parallel ascending-id slices, the input
// shape foldWindow and the metric layer share.
func (ix *Index) windowSlices(stats []calib.SuffStats, regions []int) ([]int, []calib.SuffStats, error) {
	seen, err := ix.RegionSet(regions)
	if err != nil || len(regions) == 0 {
		return nil, nil, err
	}
	ids := make([]int, 0, len(regions))
	window := make([]calib.SuffStats, 0, len(regions))
	for region, in := range seen {
		if !in {
			continue
		}
		ids = append(ids, region)
		window = append(window, stats[region])
	}
	return ids, window, nil
}

// foldWindow runs the legacy window aggregation over parallel
// ascending-id slices of region ids and their sufficient statistics.
// Every caller — local queries via GroupStats, cross-shard merges via
// MergeWindowStats — funnels through this one fold, so the
// floating-point operation order (and hence the exact bit pattern of
// every aggregate) is identical no matter how the statistics were
// collected. It performs no per-region allocation beyond the result's
// Regions slice.
func foldWindow(task int, ids []int, window []calib.SuffStats) WindowStats {
	out := WindowStats{Task: task, CalRatio: math.NaN()}
	if len(ids) > 0 {
		out.Regions = make([]RegionStat, 0, len(ids))
	}
	var sumScore, sumLabel float64
	for i, region := range ids {
		st := window[i]
		out.Count += st.Count
		sumScore += st.SumScore
		sumLabel += st.SumLabel
		out.Regions = append(out.Regions, regionStatOf(region, st))
	}
	if out.Count > 0 {
		out.MeanConf = sumScore / float64(out.Count)
		out.PosRate = sumLabel / float64(out.Count)
		out.Miscal = math.Abs(out.MeanConf - out.PosRate)
		if out.PosRate > 0 {
			out.CalRatio = out.MeanConf / out.PosRate
		}
		// Definition 3 restricted to the window: population-weighted
		// mean of per-region |e − o| over the window's total.
		for _, st := range window {
			if st.Count > 0 {
				out.ENCE += (float64(st.Count) / float64(out.Count)) * st.MiscalAbs()
			}
		}
	}
	return out
}

// MergeWindowStats rebuilds an exact window aggregate from per-region
// summaries gathered across shards of a partitioned index. Each
// RegionStat must carry the raw sufficient statistics (Count,
// SumScore, SumLabel) of a distinct region, with ids in the global id
// space; the slice need not be sorted. Because the statistics are
// additive and the fold is shared with GroupStats, the result is
// bit-identical to querying the whole index — including ENCE, whose
// population weights come from the merged total.
func MergeWindowStats(task int, regions []RegionStat) (WindowStats, error) {
	ids, window, err := mergeWindowSlices(regions)
	if err != nil {
		return WindowStats{}, err
	}
	return foldWindow(task, ids, window), nil
}

// MergeWindowStatsMetrics is MergeWindowStats with fairness-metric
// selection, mirroring GroupStatsMetrics: each named registered metric
// is evaluated over the merged per-region sufficient statistics; with
// no names every registered metric is evaluated. Metric values are
// bit-identical to GroupStatsMetrics on the whole index because the
// metric layer consumes the same ascending-id SuffStats window.
func MergeWindowStatsMetrics(task int, regions []RegionStat, names ...string) (WindowStats, error) {
	return windowMetrics(task, names, func() ([]int, []calib.SuffStats, error) {
		return mergeWindowSlices(regions)
	})
}

// mergeWindowSlices validates and sorts merged per-region summaries
// into the parallel ascending-id slices foldWindow consumes.
func mergeWindowSlices(regions []RegionStat) ([]int, []calib.SuffStats, error) {
	if len(regions) == 0 {
		return nil, nil, nil
	}
	ordered := regions
	if !sort.SliceIsSorted(ordered, func(a, b int) bool { return ordered[a].Region < ordered[b].Region }) {
		ordered = append([]RegionStat(nil), regions...)
		sort.Slice(ordered, func(a, b int) bool { return ordered[a].Region < ordered[b].Region })
	}
	ids := make([]int, 0, len(ordered))
	window := make([]calib.SuffStats, 0, len(ordered))
	prev := -1
	for _, rs := range ordered {
		if rs.Region < 0 {
			return nil, nil, fmt.Errorf("%w: region %d out of range", ErrQuery, rs.Region)
		}
		if rs.Region == prev {
			return nil, nil, fmt.Errorf("%w: duplicate region %d", ErrQuery, rs.Region)
		}
		if rs.Count < 0 {
			return nil, nil, fmt.Errorf("%w: region %d has negative count %d", ErrQuery, rs.Region, rs.Count)
		}
		prev = rs.Region
		ids = append(ids, rs.Region)
		window = append(window, calib.SuffStats{Count: rs.Count, SumScore: rs.SumScore, SumLabel: rs.SumLabel})
	}
	return ids, window, nil
}

// regionStatOf converts stored sufficient statistics into the public
// per-region summary.
func regionStatOf(region int, st calib.SuffStats) RegionStat {
	ratio := math.NaN()
	if st.PosRate() > 0 {
		ratio = st.MeanScore() / st.PosRate()
	}
	return RegionStat{
		Region:   region,
		Count:    st.Count,
		MeanConf: st.MeanScore(),
		PosRate:  st.PosRate(),
		Miscal:   st.MiscalAbs(),
		CalRatio: ratio,
		SumScore: st.SumScore,
		SumLabel: st.SumLabel,
	}
}
