package fairindex_test

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	fairindex "fairindex"
)

// bruteSuffStats recomputes per-region sufficient statistics from the
// raw records through the public serving surface — locate each record,
// score it through the task model and tally count / Σscore / Σlabel —
// the ground truth every stored statistic and metric must agree with.
func bruteSuffStats(t *testing.T, idx *fairindex.Index, ds *fairindex.Dataset, task int) []fairindex.SuffStats {
	t.Helper()
	stats := make([]fairindex.SuffStats, idx.NumRegions())
	for _, rec := range ds.Records {
		region, err := idx.Locate(rec.Lat, rec.Lon)
		if err != nil {
			t.Fatal(err)
		}
		score, err := idx.Score(rec, task)
		if err != nil {
			t.Fatal(err)
		}
		stats[region].Count++
		stats[region].SumScore += score
		if rec.Labels[task] != 0 {
			stats[region].SumLabel++
		}
	}
	return stats
}

// Reference metric implementations, written independently of the
// package (naive formulas over per-group e, o, n) so the property
// tests pin the built-ins against a second derivation rather than
// against themselves.
func refMeans(g fairindex.SuffStats) (e, o float64) {
	if g.Count == 0 {
		return 0, 0
	}
	return g.SumScore / float64(g.Count), g.SumLabel / float64(g.Count)
}

func refENCE(stats []fairindex.SuffStats) float64 {
	total := 0
	for _, g := range stats {
		total += g.Count
	}
	if total == 0 {
		return 0
	}
	var sum float64
	for _, g := range stats {
		e, o := refMeans(g)
		sum += float64(g.Count) / float64(total) * math.Abs(e-o)
	}
	return sum
}

func refCalRatio(stats []fairindex.SuffStats) float64 {
	var s, l float64
	for _, g := range stats {
		s += g.SumScore
		l += g.SumLabel
	}
	if l <= 0 {
		return math.NaN()
	}
	return s / l
}

func refMiscalAbs(stats []fairindex.SuffStats) float64 {
	var pooled fairindex.SuffStats
	for _, g := range stats {
		pooled.Count += g.Count
		pooled.SumScore += g.SumScore
		pooled.SumLabel += g.SumLabel
	}
	e, o := refMeans(pooled)
	return math.Abs(e - o)
}

// refSpread computes max−min of f over non-empty groups, 0 when fewer
// than two groups carry population.
func refSpread(stats []fairindex.SuffStats, f func(e, o float64) float64) float64 {
	var vals []float64
	for _, g := range stats {
		if g.Count > 0 {
			e, o := refMeans(g)
			vals = append(vals, f(e, o))
		}
	}
	if len(vals) < 2 {
		return 0
	}
	sort.Float64s(vals)
	return vals[len(vals)-1] - vals[0]
}

func refAtkinson(stats []fairindex.SuffStats, eps float64) float64 {
	total := 0
	for _, g := range stats {
		total += g.Count
	}
	if total == 0 {
		return 0
	}
	var mean float64
	for _, g := range stats {
		e, o := refMeans(g)
		mean += float64(g.Count) / float64(total) * math.Abs(e-o)
	}
	if mean <= 0 || eps == 0 {
		return 0
	}
	// Equally-distributed-equivalent via the generalized mean of order
	// 1−ε (log form at ε = 1).
	var ede float64
	if eps == 1 {
		var logSum float64
		for _, g := range stats {
			if g.Count == 0 {
				continue
			}
			e, o := refMeans(g)
			x := math.Abs(e - o)
			if x == 0 {
				return 1
			}
			logSum += float64(g.Count) / float64(total) * math.Log(x)
		}
		ede = math.Exp(logSum)
	} else {
		p := 1 - eps
		var powSum float64
		for _, g := range stats {
			if g.Count == 0 {
				continue
			}
			e, o := refMeans(g)
			x := math.Abs(e - o)
			if x == 0 {
				if eps > 1 {
					return 1
				}
				continue
			}
			powSum += float64(g.Count) / float64(total) * math.Pow(x, p)
		}
		ede = math.Pow(powSum, 1/p)
	}
	v := 1 - ede/mean
	return math.Min(1, math.Max(0, v))
}

// refMetrics maps every built-in metric name onto its reference
// implementation.
func refMetrics() map[string]func([]fairindex.SuffStats) float64 {
	return map[string]func([]fairindex.SuffStats) float64{
		fairindex.MetricENCE:      refENCE,
		fairindex.MetricCalRatio:  refCalRatio,
		fairindex.MetricMiscalAbs: refMiscalAbs,
		fairindex.MetricStatParity: func(s []fairindex.SuffStats) float64 {
			return refSpread(s, func(e, o float64) float64 { return e })
		},
		fairindex.MetricAccuracyParity: func(s []fairindex.SuffStats) float64 {
			return refSpread(s, func(e, o float64) float64 { return e*o + (1-e)*(1-o) })
		},
		fairindex.MetricAtkinson: func(s []fairindex.SuffStats) float64 {
			return refAtkinson(s, 0.5)
		},
	}
}

// approxEq treats NaN as equal to NaN and otherwise demands agreement
// to a tight relative tolerance (the reference implementations may
// accumulate in a different order).
func approxEq(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

// TestMetricsMatchBruteForce pins every built-in metric against its
// reference implementation evaluated over brute-force per-region
// statistics recomputed from the raw records, across the three
// partition shapes (fair KD, Voronoi zipcode, quadtree) and over both
// the full window and random sub-windows.
func TestMetricsMatchBruteForce(t *testing.T) {
	for name, opts := range queryConfigs() {
		t.Run(name, func(t *testing.T) {
			idx, ds := buildSmallIndex(t, opts...)
			brute := bruteSuffStats(t, idx, ds, 0)
			refs := refMetrics()

			check := func(window []int) {
				t.Helper()
				ws, err := idx.GroupStatsMetrics(0, window)
				if err != nil {
					t.Fatal(err)
				}
				sub := make([]fairindex.SuffStats, 0, len(ws.Regions))
				for _, rs := range ws.Regions {
					sub = append(sub, brute[rs.Region])
				}
				for metric, ref := range refs {
					got, ok := ws.Metrics[metric]
					if !ok {
						t.Fatalf("window %v: metric %q missing from Metrics map", window, metric)
					}
					if want := ref(sub); !approxEq(got, want) {
						t.Errorf("window %v: %s = %v, brute force %v", window, metric, got, want)
					}
				}
			}

			all := make([]int, idx.NumRegions())
			for i := range all {
				all[i] = i
			}
			check(all)

			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 40; i++ {
				perm := rng.Perm(idx.NumRegions())
				window := perm[:rng.Intn(len(perm)+1)]
				check(window)
			}
		})
	}
}

// TestGroupStatsMetricsSurface pins the GroupStatsMetrics API
// contract: legacy fields bit-identical to GroupStats, the "ence"
// metric bit-identical to the legacy ENCE field, empty selection =
// every registered metric, explicit selection respected, unknown
// names rejected with ErrQuery, and the legacy path leaving Metrics
// nil.
func TestGroupStatsMetricsSurface(t *testing.T) {
	idx, _ := buildSmallIndex(t, fairindex.WithHeight(5))
	window := []int{0, 1, 2, 3}

	legacy, err := idx.GroupStats(0, window)
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Metrics != nil {
		t.Errorf("legacy GroupStats populated Metrics: %v", legacy.Metrics)
	}

	ws, err := idx.GroupStatsMetrics(0, window)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(ws.Metrics), len(fairindex.Metrics()); got != want {
		t.Errorf("empty selection computed %d metrics, want all %d", got, want)
	}
	if ws.ENCE != legacy.ENCE || ws.Miscal != legacy.Miscal || ws.Count != legacy.Count ||
		ws.MeanConf != legacy.MeanConf || ws.PosRate != legacy.PosRate {
		t.Errorf("legacy fields diverge: %+v vs %+v", ws, legacy)
	}
	if !(math.IsNaN(ws.CalRatio) && math.IsNaN(legacy.CalRatio)) && ws.CalRatio != legacy.CalRatio {
		t.Errorf("CalRatio %v vs legacy %v", ws.CalRatio, legacy.CalRatio)
	}
	if ws.Metrics[fairindex.MetricENCE] != ws.ENCE {
		t.Errorf("metrics[ence] %v != legacy ENCE field %v", ws.Metrics[fairindex.MetricENCE], ws.ENCE)
	}

	only, err := idx.GroupStatsMetrics(0, window, fairindex.MetricStatParity)
	if err != nil {
		t.Fatal(err)
	}
	if len(only.Metrics) != 1 {
		t.Errorf("explicit selection computed %v", only.Metrics)
	}
	if _, ok := only.Metrics[fairindex.MetricStatParity]; !ok {
		t.Errorf("stat_parity missing: %v", only.Metrics)
	}

	if _, err := idx.GroupStatsMetrics(0, window, "no_such_metric"); !errors.Is(err, fairindex.ErrQuery) {
		t.Errorf("unknown metric error = %v, want ErrQuery", err)
	}
}

// TestMetricsDeterministicAndTotal is the registry-wide vet: every
// registered metric must return a value (never panic) on adversarial
// windows — nil, all-empty groups, no positives, single group,
// extreme magnitudes — and must be bit-for-bit deterministic across
// repeated calls on the same input.
func TestMetricsDeterministicAndTotal(t *testing.T) {
	windows := map[string][]fairindex.SuffStats{
		"nil":          nil,
		"empty-groups": make([]fairindex.SuffStats, 5),
		"single-group": {{Count: 10, SumScore: 4.2, SumLabel: 6}},
		"no-positives": {
			{Count: 7, SumScore: 2.5}, {Count: 3, SumScore: 0.1},
		},
		"perfect": {
			{Count: 8, SumScore: 4, SumLabel: 4}, {Count: 2, SumScore: 1, SumLabel: 1},
		},
		"mixed": {
			{Count: 100, SumScore: 37.5, SumLabel: 40},
			{},
			{Count: 1, SumScore: 0.99, SumLabel: 0},
			{Count: 12, SumScore: 3, SumLabel: 9},
		},
		"extreme": {
			{Count: 1 << 30, SumScore: 1e12, SumLabel: 1e9},
			{Count: 1, SumScore: 1e-300, SumLabel: 1},
		},
	}
	for _, name := range fairindex.Metrics() {
		m, ok := fairindex.MetricByName(name)
		if !ok {
			t.Fatalf("Metrics() lists %q but MetricByName misses it", name)
		}
		if m.Name() != name {
			t.Errorf("metric registered as %q reports Name() %q", name, m.Name())
		}
		for wname, window := range windows {
			// Totality: a panic here fails the test with a stack.
			first := m.Compute(window)
			again := m.Compute(window)
			if math.Float64bits(first) != math.Float64bits(again) {
				t.Errorf("%s over %s not deterministic: %v then %v", name, wname, first, again)
			}
		}
	}
}

// TestDriftThresholdsTriggerPerMetric arms a per-metric threshold via
// SetDriftThresholds and checks that appends report per-metric drifts
// and trip the rebuild recommendation through a non-ENCE metric.
func TestDriftThresholdsTriggerPerMetric(t *testing.T) {
	ds := smallLA(t)
	build := &fairindex.Dataset{
		Name: ds.Name, Grid: ds.Grid, Box: ds.Box,
		FeatureNames: ds.FeatureNames, TaskNames: ds.TaskNames,
		Records: ds.Records[:len(ds.Records)-60],
	}
	extra := ds.Records[len(ds.Records)-60:]

	idx, err := fairindex.Build(build, fairindex.WithHeight(4), fairindex.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.SetDriftThresholds(map[string]float64{
		fairindex.MetricStatParity: 1e-12,
	}); err != nil {
		t.Fatal(err)
	}
	if got := idx.DriftThresholds(); got[fairindex.MetricStatParity] != 1e-12 {
		t.Fatalf("armed thresholds = %v", got)
	}

	// Skew the appended labels so the per-region score/label balance —
	// and with it the parity spread — moves.
	skewed := make([]fairindex.Record, len(extra))
	for i, rec := range extra {
		skewed[i] = rec
		skewed[i].Labels = append([]int(nil), rec.Labels...)
		skewed[i].Labels[0] = i % 2
	}
	res, err := idx.AppendBatch(skewed)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := res.Drifts[fairindex.MetricStatParity]
	if !ok {
		t.Fatalf("append result carries no stat_parity drift: %v", res.Drifts)
	}
	if math.IsNaN(d) || d <= 0 {
		t.Fatalf("stat_parity drift = %v, want positive", d)
	}
	if !res.RebuildRecommended {
		t.Error("drift above armed per-metric threshold did not recommend a rebuild")
	}
	if !idx.RebuildRecommended() {
		t.Error("index does not advertise the recommendation")
	}

	md, err := idx.MetricDrift(idx.Tasks()[0], fairindex.MetricStatParity)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(md) || md <= 0 {
		t.Errorf("MetricDrift = %v, want positive", md)
	}
	if _, err := idx.MetricDrift(idx.Tasks()[0], "no_such_metric"); !errors.Is(err, fairindex.ErrQuery) {
		t.Errorf("unknown metric drift error = %v, want ErrQuery", err)
	}
}

// TestWithObjectiveMetricBuilds exercises the pluggable partitioner
// objective: a registered metric can drive the fair split scoring for
// both single- and multi-objective fair KD methods, unknown names and
// unsupported methods are configuration errors, and the resulting
// partitioning still answers queries.
func TestWithObjectiveMetricBuilds(t *testing.T) {
	ds := smallLA(t)

	idx, err := fairindex.Build(ds,
		fairindex.WithHeight(4), fairindex.WithSeed(7),
		fairindex.WithObjectiveMetric(fairindex.MetricAtkinson))
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumRegions() < 2 {
		t.Fatalf("metric-objective build produced %d regions", idx.NumRegions())
	}
	if _, err := idx.GroupStatsMetrics(0, []int{0, 1}); err != nil {
		t.Fatalf("metric-objective index cannot answer queries: %v", err)
	}

	multi, err := fairindex.Build(ds,
		fairindex.WithMethod(fairindex.MethodMultiObjectiveFairKD),
		fairindex.WithAlphas(0.5, 0.5),
		fairindex.WithHeight(4), fairindex.WithSeed(7),
		fairindex.WithObjectiveMetric(fairindex.MetricMiscalAbs))
	if err != nil {
		t.Fatal(err)
	}
	if multi.NumRegions() < 2 {
		t.Fatalf("multi-objective metric build produced %d regions", multi.NumRegions())
	}

	if _, err := fairindex.Build(ds, fairindex.WithHeight(4),
		fairindex.WithObjectiveMetric("no_such_metric")); !errors.Is(err, fairindex.ErrConfig) {
		t.Errorf("unknown objective metric error = %v, want ErrConfig", err)
	}
	if _, err := fairindex.Build(ds,
		fairindex.WithMethod(fairindex.MethodZipCode),
		fairindex.WithObjectiveMetric(fairindex.MetricENCE)); !errors.Is(err, fairindex.ErrConfig) {
		t.Errorf("objective metric on zipcode error = %v, want ErrConfig", err)
	}
}

// TestRegisterMetricCustom registers a custom metric and checks it is
// immediately selectable through window aggregation.
func TestRegisterMetricCustom(t *testing.T) {
	const name = "test_worst_region"
	if _, ok := fairindex.MetricByName(name); !ok {
		fairindex.RegisterMetric(fairindex.MetricFunc(name,
			func(stats []fairindex.SuffStats) float64 {
				worst := 0.0
				for _, g := range stats {
					if g.Count > 0 {
						worst = math.Max(worst, g.MiscalAbs())
					}
				}
				return worst
			}))
	}
	idx, _ := buildSmallIndex(t, fairindex.WithHeight(4))
	all := make([]int, idx.NumRegions())
	for i := range all {
		all[i] = i
	}
	ws, err := idx.GroupStatsMetrics(0, all, name)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := ws.Metrics[name]
	if !ok {
		t.Fatalf("custom metric missing: %v", ws.Metrics)
	}
	// The worst per-region miscalibration bounds the weighted mean.
	if v < ws.ENCE {
		t.Errorf("worst-region miscal %v < ENCE %v", v, ws.ENCE)
	}
}
