package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeFiles drops a baseline JSON and a bench output into a temp dir.
func writeFiles(t *testing.T, baseline, bench string) (basePath, benchPath string) {
	t.Helper()
	dir := t.TempDir()
	basePath = filepath.Join(dir, "BENCH_index.json")
	benchPath = filepath.Join(dir, "bench.out")
	if err := os.WriteFile(basePath, []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(benchPath, []byte(bench), 0o644); err != nil {
		t.Fatal(err)
	}
	return basePath, benchPath
}

const baseline = `{
  "benchmarks": {
    "BenchmarkIndexLocate": {"ns_per_op": 8.0},
    "BenchmarkIndexLocateBatch": {"ns_per_op": 8000},
    "BenchmarkIndexRangeQuery": {"ns_per_op": 3000},
    "BenchmarkIndexNearestRegions": {"ns_per_op": 1000},
    "BenchmarkIndexGroupStats": {"ns_per_op": 3000},
    "BenchmarkIndexGroupStatsMetrics": {"ns_per_op": 9500, "allocs_per_op": 7},
    "BenchmarkIndexAppendBatch": {"ns_per_op": 320000, "allocs_per_op": 614},
    "BenchmarkIndexUnmarshal": {"ns_per_op": 70000},
    "BenchmarkRegistryLookup": {"ns_per_op": 18},
    "BenchmarkIndexBuild": {"ns_per_op": 36000000, "allocs_per_op": 3000},
    "BenchmarkIndexBuild10k": {"ns_per_op": 150000000, "allocs_per_op": 12000},
    "BenchmarkShardMergeGroupStats": {"ns_per_op": 12500, "allocs_per_op": 3},
    "BenchmarkRouterLocateBatch": {"ns_per_op": 2300000, "allocs_per_op": 900},
    "BenchmarkRouterStatsFailover": {"ns_per_op": 114000, "allocs_per_op": 222},
    "BenchmarkRouterStatsWindow": {"ns_per_op": 530000, "allocs_per_op": 416},
    "BenchmarkRebuildGate": {"ns_per_op": 32000, "allocs_per_op": 39}
  }
}`

// healthyQueries are in-tolerance result lines for the query-engine,
// registry and build benchmarks, appended to fixtures that exercise
// the other entries.
const healthyQueries = `BenchmarkIndexRangeQuery-4  	  100	      3100 ns/op
BenchmarkIndexNearestRegions-4 	  100	      1050 ns/op
BenchmarkIndexGroupStats-4  	  100	      3050 ns/op
BenchmarkIndexGroupStatsMetrics-4  	  100	      9600 ns/op	   10688 B/op	       7 allocs/op
BenchmarkIndexAppendBatch-4  	  100	    330000 ns/op	  426866 B/op	     614 allocs/op
BenchmarkIndexUnmarshal-4  	  100	     71000 ns/op
BenchmarkRegistryLookup-4  	 1000	        19 ns/op
BenchmarkIndexBuild-4  	   10	  37000000 ns/op	 2110672 B/op	    2980 allocs/op
BenchmarkIndexBuild10k-4  	    5	 155000000 ns/op	 5941552 B/op	   11900 allocs/op
BenchmarkShardMergeGroupStats-4  	  100	     12800 ns/op	   16432 B/op	       3 allocs/op
BenchmarkRouterLocateBatch-4  	   50	   2350000 ns/op	  401822 B/op	     895 allocs/op
BenchmarkRouterStatsFailover-4   	  100	    118000 ns/op	   27210 B/op	     222 allocs/op
BenchmarkRouterStatsWindow-4   	   50	    540000 ns/op	   66140 B/op	     416 allocs/op
BenchmarkRebuildGate-4  	  100	     32500 ns/op	   72672 B/op	      39 allocs/op
`

// gate runs the comparator against the given bench output.
func gate(t *testing.T, baselineJSON, bench string, extra ...string) error {
	t.Helper()
	basePath, benchPath := writeFiles(t, baselineJSON, bench)
	args := append([]string{"-bench", benchPath, "-baseline", basePath}, extra...)
	return run(args, os.Stdout)
}

func TestGatePassesWithinTolerance(t *testing.T) {
	bench := `goos: linux
BenchmarkIndexLocate-4    	49510341	         9.5 ns/op
BenchmarkIndexLocateBatch-4 	   57247	      9100 ns/op
` + healthyQueries + `PASS
`
	if err := gate(t, baseline, bench); err != nil {
		t.Fatalf("within-tolerance run failed: %v", err)
	}
}

// TestGateFailsOnInjectedSlowdown is the gate's own acceptance test:
// a 10x slowdown on a watched benchmark must fail the job.
func TestGateFailsOnInjectedSlowdown(t *testing.T) {
	bench := `BenchmarkIndexLocate-4    	49510341	        80 ns/op
BenchmarkIndexLocateBatch-4 	   57247	      8100 ns/op
` + healthyQueries
	err := gate(t, baseline, bench)
	if err == nil {
		t.Fatal("10x Locate slowdown passed the gate")
	}
	if !strings.Contains(err.Error(), "BenchmarkIndexLocate") {
		t.Errorf("failure does not name the regressed benchmark: %v", err)
	}
	if strings.Contains(err.Error(), "BenchmarkIndexLocateBatch") {
		t.Errorf("failure names a healthy benchmark: %v", err)
	}
}

func TestGateFailsOnBatchSlowdown(t *testing.T) {
	bench := `BenchmarkIndexLocate-4    	49510341	         8.2 ns/op
BenchmarkIndexLocateBatch-4 	    5724	     81000 ns/op
` + healthyQueries
	if err := gate(t, baseline, bench); err == nil {
		t.Fatal("10x LocateBatch slowdown passed the gate")
	}
}

// TestGateTakesFastestRun: with -count > 1 the minimum ns/op is
// compared, damping one-off scheduler noise.
func TestGateTakesFastestRun(t *testing.T) {
	bench := `BenchmarkIndexLocate-4    	49510341	       120 ns/op
BenchmarkIndexLocate-4    	49510341	         8.1 ns/op
BenchmarkIndexLocateBatch-4 	   57247	      8100 ns/op
` + healthyQueries
	if err := gate(t, baseline, bench); err != nil {
		t.Fatalf("fastest-run selection failed: %v", err)
	}
}

func TestGateMissingWatchedBenchmark(t *testing.T) {
	bench := `BenchmarkIndexLocate-4    	49510341	         8.1 ns/op
`
	if err := gate(t, baseline, bench); err == nil {
		t.Fatal("missing watched benchmark passed the gate")
	}
}

func TestGateMissingBaselineEntry(t *testing.T) {
	bench := `BenchmarkIndexLocate-4  	10	 8.1 ns/op
BenchmarkIndexLocateBatch-4 	10	 8100 ns/op
`
	thin := `{"benchmarks": {"BenchmarkIndexLocate": {"ns_per_op": 8.0}}}`
	if err := gate(t, thin, bench); err == nil {
		t.Fatal("baseline without a watched entry passed the gate")
	}
}

func TestGateCustomWatchAndRatio(t *testing.T) {
	bench := `BenchmarkIndexScore-4  	10	 5000 ns/op
`
	custom := `{"benchmarks": {"BenchmarkIndexScore": {"ns_per_op": 1400}}}`
	// 5000/1400 ≈ 3.6x: fails at the default 2.5 but passes at 4.
	if err := gate(t, custom, bench, "-watch", "BenchmarkIndexScore"); err == nil {
		t.Fatal("3.6x regression passed at max-ratio 2.5")
	}
	if err := gate(t, custom, bench, "-watch", "BenchmarkIndexScore", "-max-ratio", "4"); err != nil {
		t.Fatalf("3.6x regression failed at max-ratio 4: %v", err)
	}
}

func TestGateBadInputs(t *testing.T) {
	if err := run([]string{}, os.Stdout); err == nil {
		t.Error("expected error without -bench")
	}
	if err := gate(t, `not json`, "BenchmarkIndexLocate-4 10 8 ns/op\n"); err == nil {
		t.Error("expected error for corrupt baseline")
	}
	if err := gate(t, baseline, "no bench lines here\n"); err == nil {
		t.Error("expected error for benchless output")
	}
	if err := gate(t, baseline, "BenchmarkIndexLocate-4 10 8 ns/op\n", "-max-ratio", "-1"); err == nil {
		t.Error("expected error for non-positive ratio")
	}
}

// TestGateAllocs: with -max-alloc-ratio the gate enforces allocs/op
// for entries carrying an allocation baseline, and an allocation blowup
// fails even when ns/op is within tolerance.
func TestGateAllocs(t *testing.T) {
	healthy := `BenchmarkIndexLocate-4    	49510341	         8.1 ns/op
BenchmarkIndexLocateBatch-4 	   57247	      8100 ns/op
` + healthyQueries
	if err := gate(t, baseline, healthy, "-max-alloc-ratio", "2"); err != nil {
		t.Fatalf("healthy allocs failed the gate: %v", err)
	}
	// 90000 allocs on a 3000 baseline: 30x, while time stays healthy.
	blown := strings.Replace(healthy,
		"BenchmarkIndexBuild-4  	   10	  37000000 ns/op	 2110672 B/op	    2980 allocs/op",
		"BenchmarkIndexBuild-4  	   10	  37000000 ns/op	 9110672 B/op	   90000 allocs/op", 1)
	err := gate(t, baseline, blown, "-max-alloc-ratio", "2")
	if err == nil {
		t.Fatal("30x allocation regression passed the gate")
	}
	if !strings.Contains(err.Error(), "allocs/op") || !strings.Contains(err.Error(), "BenchmarkIndexBuild") {
		t.Errorf("failure does not name the allocation regression: %v", err)
	}
	// Without the flag, allocations are not gated.
	if err := gate(t, baseline, blown); err != nil {
		t.Fatalf("alloc gating ran without -max-alloc-ratio: %v", err)
	}
	// A baselined entry that stops reporting allocations is an error.
	silent := strings.Replace(healthy,
		"BenchmarkIndexBuild-4  	   10	  37000000 ns/op	 2110672 B/op	    2980 allocs/op",
		"BenchmarkIndexBuild-4  	   10	  37000000 ns/op", 1)
	if err := gate(t, baseline, silent, "-max-alloc-ratio", "2"); err == nil {
		t.Fatal("missing allocs/op report passed an alloc-gated run")
	}
	if err := gate(t, baseline, healthy, "-max-alloc-ratio", "-1"); err == nil {
		t.Fatal("negative -max-alloc-ratio accepted")
	}
}

func TestBenchLineParsing(t *testing.T) {
	cases := []struct {
		line string
		name string
		ns   float64
		ok   bool
	}{
		{"BenchmarkIndexLocate-8   \t49510341\t         7.6 ns/op", "BenchmarkIndexLocate", 7.6, true},
		{"BenchmarkIndexLocate   \t100\t         12 ns/op", "BenchmarkIndexLocate", 12, true},
		{"BenchmarkIndexMarshal-2 \t  27072\t     43168 ns/op\t  18632 B/op", "BenchmarkIndexMarshal", 43168, true},
		{"ok  \tfairindex\t0.970s", "", 0, false},
		{"goos: linux", "", 0, false},
	}
	for _, tc := range cases {
		m := benchLine.FindStringSubmatch(tc.line)
		if tc.ok != (m != nil) {
			t.Errorf("%q: matched = %v, want %v", tc.line, m != nil, tc.ok)
			continue
		}
		if m != nil && m[1] != tc.name {
			t.Errorf("%q: name %q, want %q", tc.line, m[1], tc.name)
		}
	}

	// Full allocation-reporting line: allocs/op must land in group 3.
	m := benchLine.FindStringSubmatch("BenchmarkIndexBuild-8 \t      33\t  36579574 ns/op\t 2110672 B/op\t    2972 allocs/op")
	if m == nil || m[1] != "BenchmarkIndexBuild" || m[2] != "36579574" || m[3] != "2972" {
		t.Errorf("allocation line parsed as %v", m)
	}
	// B/op without allocs/op (SetBytes-style output) must not leak into
	// the allocs group.
	m = benchLine.FindStringSubmatch("BenchmarkIndexMarshal-2 \t  27072\t     43168 ns/op\t  18632 B/op")
	if m == nil || m[3] != "" {
		t.Errorf("B/op-only line parsed as %v", m)
	}
}

// TestGateAllocsAfterReportedMetrics: b.ReportMetric units print
// between ns/op and B/op, and allocs/op is still read by its unit
// name, so an alloc-gated benchmark may report its own metrics.
func TestGateAllocsAfterReportedMetrics(t *testing.T) {
	line := "BenchmarkRouterStatsWindow-4   \t   50\t    540000 ns/op\t        29.00 regions\t         2.000 shards\t   66140 B/op\t     416 allocs/op"
	m := benchLine.FindStringSubmatch(line)
	if m == nil || m[1] != "BenchmarkRouterStatsWindow" || m[2] != "540000" || m[3] != "416" {
		t.Fatalf("reported-metric line parsed as %v", m)
	}
	healthy := `BenchmarkIndexLocate-4    	49510341	         8.1 ns/op
BenchmarkIndexLocateBatch-4 	   57247	      8100 ns/op
` + strings.Replace(healthyQueries,
		"BenchmarkRouterStatsWindow-4   	   50	    540000 ns/op	   66140 B/op	     416 allocs/op", line, 1)
	if !strings.Contains(healthy, "regions") {
		t.Fatal("fixture lost the reported-metric line")
	}
	if err := gate(t, baseline, healthy, "-max-alloc-ratio", "2"); err != nil {
		t.Fatalf("reported metrics hid allocs/op from the gate: %v", err)
	}
	blown := strings.Replace(healthy, "416 allocs/op", "4160 allocs/op", 1)
	if err := gate(t, baseline, blown, "-max-alloc-ratio", "2"); err == nil {
		t.Fatal("10x allocation regression behind reported metrics passed the gate")
	}
}
