package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestHistRecordDoesNotAllocate(t *testing.T) {
	var h hist
	d := 37 * time.Microsecond
	if n := testing.AllocsPerRun(1000, func() { h.Record(d) }); n != 0 {
		t.Fatalf("Record allocates %v times per call", n)
	}
}

func TestHistQuantilesWithinOneBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h hist
	var ref []time.Duration
	for range 200_000 {
		// Log-normal around 50µs, spanning microseconds to tens of ms.
		d := time.Duration(50e3 * math.Exp(rng.NormFloat64()*1.5))
		d = min(max(d, histMin), histMax)
		h.Record(d)
		ref = append(ref, d)
	}
	slices.Sort(ref)
	for _, q := range []float64{0.5, 0.99, 0.999} {
		want := ref[int(math.Ceil(q*float64(len(ref))))-1]
		got := h.Quantile(q)
		if diff := histBucket(got) - histBucket(want); diff < -1 || diff > 1 {
			t.Errorf("q%.3f: got %v (bucket %d), sorted reference %v (bucket %d)",
				q, got, histBucket(got), want, histBucket(want))
		}
		if rel := math.Abs(float64(got-want)) / float64(want); rel > 0.02 {
			t.Errorf("q%.3f: got %v, reference %v: %.2f%% apart", q, got, want, 100*rel)
		}
	}
}

func TestHistBucketWidth(t *testing.T) {
	for i := 0; i < histBuckets; i++ {
		lo, hi := histBounds(i)
		if float64(hi-lo)/float64(lo) > 0.01 {
			t.Fatalf("bucket %d [%v, %v) is wider than 1%%", i, lo, hi)
		}
		if lo >= histMin && lo <= histMax && histBucket(lo) != i {
			t.Fatalf("bucket %d: its lower edge %v maps to bucket %d", i, lo, histBucket(lo))
		}
	}
	if got := histBucket(histMax); got >= histBuckets {
		t.Fatalf("histMax maps to bucket %d of %d", got, histBuckets)
	}
}

// node is one element of the pointer graph litter builds.
type node struct {
	next *node
	pad  [6]int64
}

var litterSink *node

// litter builds a 64 MB linked list and drops it, the way a rebuild
// cycle leaves its working set behind: a heap full of garbage, with a
// collection of it due or already under way.
func litter() {
	var head *node
	for range (64 << 20) / 64 {
		head = &node{next: head}
	}
	litterSink = head
	litterSink = nil
}

// TestProbeIgnoresGarbage checks that the host probe reads the host,
// not the heap the system under test left behind. Garbage changes the
// probe's reading through the collections that run during it, so none
// may: not after a littered heap, and not with the collector set to run
// after every 1% of heap growth, where the probe's own allocations
// would start several. (Comparing the slowdowns themselves is no test
// on a shared host: two probes a second apart differ by up to 30%.)
func TestProbeIgnoresGarbage(t *testing.T) {
	hp, err := newHostProbe(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer hp.stop()
	for i := range 3 {
		litter()
		prev := debug.SetGCPercent(1)
		_, err := hp.slowdown()
		after := debug.SetGCPercent(prev)
		if err != nil {
			t.Fatal(err)
		}
		if hp.gcs != 0 {
			t.Errorf("probe %d: %d collections ran during its timed rounds", i, hp.gcs)
		}
		if after != 1 {
			t.Errorf("probe %d left the collector at %d%%, want the 1%% it found", i, after)
		}
	}
}

// smoke shrinks a workload to a 2k-record city, 100ms measured, no
// warm-up, one set-up and a one-round host probe.
func smoke(t *testing.T, workload string, seed int64, trace bool) config {
	cfg := defaultConfig(workload, seed, 1, trace, t.TempDir())
	cfg.warmup = 0
	cfg.measure = 100 * time.Millisecond
	cfg.records = 2000
	cfg.setups = 1
	cfg.slices = 1
	cfg.probe = 1
	return cfg
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range workloadNames {
		for _, trace := range []bool{false, true} {
			name := wl
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				cfg := smoke(t, wl, 1, trace)
				res, err := runWorkload(cfg, &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("%d metrics printed, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v := res.Metrics[d.Name]
					if v.Unit != d.Unit {
						t.Errorf("%s: unit %q, want %q", d.Name, v.Unit, d.Unit)
					}
					if !trace && v.Value <= 0 {
						t.Errorf("%s = %v; end-to-end metrics are never 0", d.Name, v.Value)
					}
				}
				if trace && wl != "build" {
					if _, err := os.Stat(filepath.Join(cfg.out, "spans.jsonl")); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}

func TestRequestsDependOnSeedOnly(t *testing.T) {
	for _, wl := range []string{"point", "analytics", "churn", "routed"} {
		t.Run(wl, func(t *testing.T) {
			t.Parallel() // prepare only builds and generates; it serves nothing
			digest := func(seed int64) uint64 {
				s, err := prepare(smoke(t, wl, seed, false))
				if err != nil {
					t.Fatal(err)
				}
				return requestDigest(s.reqs, s.seq)
			}
			a, b, c := digest(1), digest(1), digest(2)
			if a != b {
				t.Errorf("seed 1 gave different request bytes on two set-ups")
			}
			if a == c {
				t.Errorf("seeds 1 and 2 gave the same request bytes")
			}
		})
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := span{start: 100, end: 200}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{start: 110, end: 120}, {start: 150, end: 170}}, 70},
		{"overlapping", []span{{start: 110, end: 140}, {start: 130, end: 160}}, 50},
		{"nested", []span{{start: 110, end: 190}, {start: 120, end: 130}}, 20},
		{"sticking out", []span{{start: 50, end: 120}, {start: 180, end: 260}}, 60},
		{"touching", []span{{start: 120, end: 130}, {start: 130, end: 140}}, 80},
		{"outside", []span{{start: 10, end: 90}, {start: 200, end: 300}}, 100},
		{"covering", []span{{start: 0, end: 300}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSpanMetricsRouterBreakdown(t *testing.T) {
	// client [0,100) → router [10,90) → two attempts, each with a
	// backend handler inside.
	spans := []span{
		{trace: 1, id: 1, name: spanName(layerClient, opStats), start: 0, end: 100_000},
		{trace: 1, id: 2, parent: 1, name: spanName(layerRouter, opStats), start: 10_000, end: 90_000},
		{trace: 1, id: 3, parent: 2, name: spanAttempt, start: 20_000, end: 60_000},
		{trace: 1, id: 4, parent: 2, name: spanAttempt, start: 30_000, end: 70_000},
		{trace: 1, id: 5, parent: 3, name: spanName(layerServer, opStats), start: 25_000, end: 55_000},
		{trace: 1, id: 6, parent: 4, name: spanName(layerServer, opStats), start: 35_000, end: 60_000},
	}
	vals := layerDefaults()
	spanMetrics(vals, spans, [numOps]float64{}, time.Second)
	want := map[string]float64{
		"server.outside_us.p50":    20, // 100 − router 80
		"router.handler_us.p50":    80,
		"router.self_us.p50":       30, // 80 − union [20,70)
		"router.stats.self_us.p50": 30,
		"router.scatter_us.p50":    10,
		"router.merge_us.p50":      20,
		"router.fanout":            2,
		"router.attempt_us.p50":    40,
		"router.hop_us.p50":        10, // attempts 40,40 − backends 30,25
		"server.handler_us.p50":    25,
	}
	for name, w := range want {
		if got := vals[name]; got != w {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, med, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || med != 2 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v, want 1 2 4", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	lat := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	cases := []struct {
		cand []float64
		want string
	}{
		{[]float64{1.02, 1.03, 1.01, 1.02, 1.04}, "no worse"},
		{[]float64{1.20, 1.21, 1.19, 1.20, 1.22}, "worse"},
		{[]float64{0.5, 1.5, 0.7, 1.3, 1.0}, "unresolved"},
	}
	for _, c := range cases {
		if _, got := verdict(lat, base, c.cand); got != c.want {
			t.Errorf("candidate %v: verdict %q, want %q", c.cand, got, c.want)
		}
	}
	tput := metricDef{Name: "throughput", Better: "higher", Bound: 0.10}
	if _, got := verdict(tput, []float64{100, 101, 99}, []float64{80, 81, 79}); got != "worse" {
		t.Errorf("throughput drop: verdict %q, want worse", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and this program's metric
// tables in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: want a one-line reason", w.Name)
		}
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	if !slices.Equal(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the program's table:\n%v\n%v", spec.EndToEnd, endToEnd)
	}
	if !slices.Equal(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's table")
	}
}
