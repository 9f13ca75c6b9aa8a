// Command benchgate compares `go test -bench` output against the
// recorded baseline in BENCH_index.json and fails (exit 1) when a
// watched benchmark regresses beyond the tolerance factor. It is the
// CI guard on the Index hot paths: later PRs may make Locate,
// LocateBatch, the region queries (RangeQuery, NearestRegions,
// GroupStats), the append fold (AppendBatch), artifact decoding
// (UnmarshalBinary, which the registry runs on the request path when
// it loads lazily), the multi-index registry lookup and the build
// pipeline
// (BenchmarkIndexBuild, BenchmarkIndexBuild10k — and, in the slow CI
// job, BenchmarkIndexBuild100k) faster, but not slower.
//
//	go test -run '^$' -bench 'BenchmarkIndex|BenchmarkRegistry|BenchmarkShardMerge|BenchmarkRouter|BenchmarkRebuildGate' -benchtime 200ms . | tee bench.out
//	go run ./cmd/benchgate -bench bench.out -baseline BENCH_index.json
//
// The default time tolerance (2.5x) is deliberately loose: shared CI
// runners are noisy and differ from the machine that recorded the
// baseline, so the gate only catches order-of-magnitude regressions —
// an accidental O(1)→O(log n) hot path, a lock on the read path —
// not few-percent drift. When a benchmark appears multiple times in
// the output (-count > 1), the fastest run is compared, which further
// damps scheduler noise.
//
// With -max-alloc-ratio > 0 the gate additionally enforces allocs/op
// for watched entries whose baseline records allocs_per_op.
// Allocation counts are deterministic — a build that suddenly
// materializes a dense one-hot matrix again jumps orders of magnitude
// — so this ratio can be far tighter than the time one without
// flaking on shared runners.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"
	"strconv"
	"strings"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchgate: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// baselineFile mirrors the BENCH_index.json layout.
type baselineFile struct {
	Description string                   `json:"description"`
	Benchmarks  map[string]baselineEntry `json:"benchmarks"`
}

// baselineEntry is one recorded benchmark; fields beyond ns_per_op
// and allocs_per_op are documentation and ignored here. A zero or
// absent allocs_per_op means the entry has no allocation baseline and
// is gated on time only.
type baselineEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// measurement is one benchmark's best observed numbers. allocs is -1
// when the output carried no allocation report (benchmarks without
// b.ReportAllocs).
type measurement struct {
	ns     float64
	allocs float64
}

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkIndexLocate-8   	49510341	         7.6 ns/op
//	BenchmarkIndexBuild-8    	      33	  36579574 ns/op	 2110672 B/op	    2972 allocs/op
//
// The -8 GOMAXPROCS suffix is optional and stripped. After ns/op the
// line is a list of `value unit` pairs, and allocs/op is read by its
// unit name: it appears only for benchmarks reporting allocations,
// and b.ReportMetric units (e.g. `29.00 regions`) print between ns/op
// and B/op.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.eE+]+) ns/op(?:\s+\S+ \S+)*?(?:\s+([0-9]+) allocs/op)?\s*$`)

// parseBenchOutput extracts the best (minimum) ns/op — and, when
// reported, allocs/op — per benchmark name from `go test -bench`
// output. Minima are tracked independently: with -count > 1 the gate
// compares each metric's least noisy run.
func parseBenchOutput(path string) (map[string]measurement, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]measurement)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad ns/op in %q: %v", path, sc.Text(), err)
		}
		allocs := -1.0
		if m[3] != "" {
			if allocs, err = strconv.ParseFloat(m[3], 64); err != nil {
				return nil, fmt.Errorf("%s: bad allocs/op in %q: %v", path, sc.Text(), err)
			}
		}
		prev, seen := out[m[1]]
		if !seen {
			out[m[1]] = measurement{ns: ns, allocs: allocs}
			continue
		}
		if ns < prev.ns {
			prev.ns = ns
		}
		if allocs >= 0 && (prev.allocs < 0 || allocs < prev.allocs) {
			prev.allocs = allocs
		}
		out[m[1]] = prev
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark result lines found", path)
	}
	return out, nil
}

// run executes the gate; a non-nil error means the job must fail.
func run(args []string, w *os.File) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	benchPath := fs.String("bench", "", "`go test -bench` output file (required)")
	basePath := fs.String("baseline", "BENCH_index.json", "baseline JSON file")
	watch := fs.String("watch",
		"BenchmarkIndexLocate,BenchmarkIndexLocateBatch,BenchmarkIndexRangeQuery,BenchmarkIndexNearestRegions,BenchmarkIndexGroupStats,BenchmarkIndexGroupStatsMetrics,BenchmarkIndexAppendBatch,BenchmarkIndexUnmarshal,BenchmarkRegistryLookup,BenchmarkIndexBuild,BenchmarkIndexBuild10k,BenchmarkShardMergeGroupStats,BenchmarkRouterLocateBatch,BenchmarkRouterStatsFailover,BenchmarkRouterStatsWindow,BenchmarkRebuildGate",
		"comma-separated benchmarks the gate enforces")
	maxRatio := fs.Float64("max-ratio", 2.5, "fail when measured/baseline ns/op exceeds this")
	maxAllocRatio := fs.Float64("max-alloc-ratio", 0,
		"also fail when measured/baseline allocs/op exceeds this, for watched entries with a recorded allocs_per_op (0 disables; allocation counts are deterministic, so this can be much tighter than -max-ratio)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *benchPath == "" {
		return fmt.Errorf("-bench is required")
	}
	if *maxRatio <= 0 {
		return fmt.Errorf("-max-ratio %v must be positive", *maxRatio)
	}
	if *maxAllocRatio < 0 {
		return fmt.Errorf("-max-alloc-ratio %v must be zero or positive", *maxAllocRatio)
	}

	blob, err := os.ReadFile(*basePath)
	if err != nil {
		return err
	}
	var base baselineFile
	if err := json.Unmarshal(blob, &base); err != nil {
		return fmt.Errorf("%s: %v", *basePath, err)
	}
	measured, err := parseBenchOutput(*benchPath)
	if err != nil {
		return err
	}

	var failures []string
	for _, name := range strings.Split(*watch, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		entry, ok := base.Benchmarks[name]
		if !ok || entry.NsPerOp <= 0 {
			return fmt.Errorf("%s: watched benchmark %q has no baseline ns_per_op", *basePath, name)
		}
		got, ok := measured[name]
		if !ok {
			return fmt.Errorf("%s: watched benchmark %q missing from output (did the bench run?)", *benchPath, name)
		}
		ratio := got.ns / entry.NsPerOp
		verdict := "ok"
		if ratio > *maxRatio {
			verdict = "FAIL"
			failures = append(failures,
				fmt.Sprintf("%s: %.4g ns/op vs baseline %.4g ns/op (%.2fx > %.2fx)",
					name, got.ns, entry.NsPerOp, ratio, *maxRatio))
		}
		fmt.Fprintf(w, "%-32s %12.4g ns/op  baseline %12.4g  ratio %5.2fx  %s\n",
			name, got.ns, entry.NsPerOp, ratio, verdict)
		if *maxAllocRatio > 0 && entry.AllocsPerOp > 0 {
			if got.allocs < 0 {
				return fmt.Errorf("%s: watched benchmark %q has an allocs_per_op baseline but reported no allocs/op (missing b.ReportAllocs?)", *benchPath, name)
			}
			aRatio := got.allocs / entry.AllocsPerOp
			aVerdict := "ok"
			if aRatio > *maxAllocRatio {
				aVerdict = "FAIL"
				failures = append(failures,
					fmt.Sprintf("%s: %.4g allocs/op vs baseline %.4g allocs/op (%.2fx > %.2fx)",
						name, got.allocs, entry.AllocsPerOp, aRatio, *maxAllocRatio))
			}
			fmt.Fprintf(w, "%-32s %12.4g allocs/op baseline %9.4g  ratio %5.2fx  %s\n",
				name, got.allocs, entry.AllocsPerOp, aRatio, aVerdict)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("hot-path regression beyond tolerance:\n  %s",
			strings.Join(failures, "\n  "))
	}
	fmt.Fprintf(w, "benchgate: all watched benchmarks within tolerance (ns %.2fx", *maxRatio)
	if *maxAllocRatio > 0 {
		fmt.Fprintf(w, ", allocs %.2fx", *maxAllocRatio)
	}
	fmt.Fprintf(w, ")\n")
	return nil
}
