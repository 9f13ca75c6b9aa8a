// Command bench is the repository's end-to-end benchmark. It hosts the
// real layers in its own process — server, registry, router, shard
// split, streaming build and the rebuild gate — drives one of five
// workloads against them with closed-loop clients, checks every reply
// against an oracle, and prints every end-to-end metric by name and
// unit, then one JSON line. With -trace 1 it adds a traced pass and
// prints the per-layer metrics instead. See README.md.
//
// Usage:
//
//	bench -workload point|analytics|churn|routed|build -seed N -seconds N -trace 0|1
//	bench -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "point", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed of the generated traffic")
	secs := fs.Int("seconds", 12, "measured seconds of each pass")
	trace := fs.Int("trace", 0, "1 adds the traced pass and prints the per-layer metrics")
	out := fs.String("out", ".bench_out", "directory for the SUT log, spans and artifacts")
	record := fs.String("record", "", "also append this run's result, tagged with workload, seed and trace, to this file")
	compare := fs.Bool("compare", false, "compare two recorded sets: -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	switch {
	case !slices.Contains(workloadNames, *workload):
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1\n")
		return 2
	case *secs < 1:
		fmt.Fprintf(stderr, "bench: -seconds must be at least 1\n")
		return 2
	}
	cfg := defaultConfig(*workload, *seed, *secs, *trace == 1, filepath.Join(*out, *workload))
	res, err := runWorkload(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if err := writeResult(stdout, res); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if *record != "" {
		if err := appendRecord(*record, cfg, res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "bench: %d of %d operations failed the oracle\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// runWorkload runs one workload with the standard logger redirected to
// <out>/sut.log: the registry logs every eviction, and that cost stays
// measured while the terminal stays quiet.
func runWorkload(cfg config, w io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(cfg.out, "sut.log"))
	if err != nil {
		return nil, err
	}
	prev := log.Writer()
	log.SetOutput(logf)
	defer func() {
		log.SetOutput(prev)
		logf.Close()
	}()
	if cfg.workload == "build" {
		return runBuild(cfg, w)
	}
	return runServing(cfg, w)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

// layerDefaults starts every per-layer metric at 0, the value of a
// layer the workload does not touch.
func layerDefaults() map[string]float64 {
	vals := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		vals[d.Name] = 0
	}
	return vals
}

// timeSetUps runs setUp n times, at least once. It returns each
// set-up's wall time and the host's slowdown around it, from probes
// before and after.
func timeSetUps(hp *hostProbe, n int, setUp func() error) (secs, slows []float64, err error) {
	slow, err := hp.slowdown()
	if err != nil {
		return nil, nil, err
	}
	for range max(n, 1) {
		t0 := time.Now()
		if err := setUp(); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		next, err := hp.slowdown()
		if err != nil {
			return nil, nil, err
		}
		slows = append(slows, (slow+next)/2)
		slow = next
	}
	return secs, slows, nil
}

func runServing(cfg config, w io.Writer) (*result, error) {
	hp, err := newHostProbe(cfg.clients, cfg.probe)
	if err != nil {
		return nil, err
	}
	defer hp.stop()
	n := cfg.setups
	if cfg.trace {
		n = 1
	}
	var (
		s  *setup
		fr *front
	)
	secs, slows, err := timeSetUps(hp, n, func() error {
		if fr != nil {
			fr.stop()
			s, fr = nil, nil
		}
		var err error
		if s, err = newSetup(cfg); err != nil {
			return err
		}
		fr, err = s.topo.start(nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	setupS := make([]float64, len(secs))
	for i, k := range slows {
		setupS[i] = secs[i] / k
	}

	lr, err := drive(cfg, s, fr.url, nil, hp)
	if err != nil {
		return nil, err
	}
	heap := liveHeapMB()
	fr.stop()
	res := &result{Attempted: lr.attempted, Failed: lr.failed}
	for _, e := range lr.errs {
		fmt.Fprintf(w, "oracle: %s\n", e)
	}

	vals := map[string]float64{
		"setup_s":        median(setupS),
		"throughput":     lr.scaledThroughput(),
		"latency_p50_ms": lr.overSlices(func(s slice) float64 { return ms(s.all.Quantile(0.5)) / s.slow }),
		"latency_p99_ms": lr.overSlices(func(s slice) float64 { return ms(s.all.Quantile(0.99)) / s.slow }),
		"live_heap_mb":   heap,
		"ence":           s.quality.ence,
		"accuracy":       s.quality.accuracy,
		"artifact_bytes": float64(s.quality.bytes),
	}
	fmt.Fprintf(w, "workload %s  seed %d  %d clients  %d correct replies in %.2fs after %v warm-up\n",
		cfg.workload, cfg.seed, cfg.clients, lr.ok, lr.wall.Seconds(), cfg.warmup)
	fmt.Fprintf(w, "as measured: set-ups %s s  throughput %.6g 1/s  latency p50 %.6g ms  p99 %.6g ms\n",
		fmtList(secs), lr.throughput(), ms(lr.all.Quantile(0.5)), ms(lr.all.Quantile(0.99)))
	fmt.Fprintf(w, "host slowdown: set-ups %s  slices %s\n", fmtList(slows), fmtList(lr.slows()))
	printTable(w, endToEnd, vals, map[string]string{
		"latency_p50_ms": fmt.Sprintf("n=%d", lr.all.Count()),
		"latency_p99_ms": fmt.Sprintf("n=%d", lr.all.Count()),
	})
	printOps(w, lr)

	if cfg.trace {
		lv, lr2, err := tracedPass(cfg, s, lr, hp, w)
		if err != nil {
			return nil, err
		}
		res.Attempted += lr2.attempted
		res.Failed += lr2.failed
		vals = lv
	}
	if s.final != nil {
		res.Attempted++
		if err := s.final(); err != nil {
			res.Failed++
			fmt.Fprintf(w, "oracle: %v\n", err)
		}
	}
	res.Correct = res.Failed == 0
	if cfg.trace {
		return res, res.fill(perLayer, vals)
	}
	return res, res.fill(endToEnd, vals)
}

// printOps prints each operation type's latency percentiles with its
// sample count. p99.9 is informational: it moves too much between runs
// to gate on.
func printOps(w io.Writer, lr *loadResult) {
	for op, name := range opNames {
		h := &lr.ops[op]
		if h.Count() == 0 {
			continue
		}
		fmt.Fprintf(w, "  op %-13s p50 %9.4f ms  p99 %9.4f ms  p99.9 %9.4f ms  n=%d\n", name,
			ms(h.Quantile(0.5)), ms(h.Quantile(0.99)), ms(h.Quantile(0.999)), h.Count())
	}
	fmt.Fprintf(w, "  all              p99.9 %9.4f ms  n=%d\n", ms(lr.all.Quantile(0.999)), lr.all.Count())
}

// tracedPass serves the same system again behind span-recording
// wrappers, drives the same traffic, and derives the per-layer
// metrics. lr is the untraced pass.
func tracedPass(cfg config, s *setup, lr *loadResult, hp *hostProbe, w io.Writer) (map[string]float64, *loadResult, error) {
	tr, err := newTracer()
	if err != nil {
		return nil, nil, err
	}
	defer tr.close()
	fr, err := s.topo.start(tr)
	if err != nil {
		return nil, nil, err
	}
	loaded0 := tr.loaded()
	lr2, err := drive(cfg, s, fr.url, tr, hp)
	if err != nil {
		fr.stop()
		return nil, nil, err
	}
	loaded1 := tr.loaded()
	var attempts, failures int64
	if fr.health != nil {
		attempts, failures = fr.health()
	}
	fr.stop()
	for _, e := range lr2.errs {
		fmt.Fprintf(w, "oracle: %s\n", e)
	}

	kernel, err := replayKernels(s)
	if err != nil {
		return nil, nil, fmt.Errorf("kernel replay: %w", err)
	}
	lv := layerDefaults()
	spans := tr.recorded()
	busy := spanMetrics(lv, spans, kernel, lr2.wall)
	registryMetrics(lv, tr, loaded0, loaded1, busy)
	lv["server.non2xx"] = float64(tr.nonOK.Load())
	lv["index.locate_ns.p50"] = kernel[opLocate]
	for op := opBatch; op < numOps; op++ {
		lv["index."+opNames[op]+"_us.p50"] = kernel[op] / 1e3
	}
	for op, name := range opNames {
		if lr.ops[op].Count() > 0 {
			lv["client."+name+".p99_ms"] = ms(lr.ops[op].Quantile(0.99))
		}
	}
	if fr.health != nil && lr2.attempted > 0 {
		lv["router.attempts_per_call"] = float64(attempts) / float64(lr2.attempted)
		lv["router.replica_failures"] = float64(failures)
	}
	if err := codecMetrics(lv, s.artifacts); err != nil {
		return nil, nil, err
	}
	buildMetrics(lv, s.builds)
	if err := ingestMetrics(lv, s.src); err != nil {
		return nil, nil, err
	}
	lv["shard.split_ms"] = ms(s.split)
	runtimeMetrics(lv, lr.proc, float64(lr.ok))
	lv["host.slowdown"] = median(lr.slows())
	lv["trace.overhead"] = 1 - lr2.scaledThroughput()/lr.scaledThroughput()

	spansPath := filepath.Join(cfg.out, "spans.jsonl")
	if err := writeSpans(spansPath, spans); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(w, "traced pass: %d correct replies in %.2fs; %d spans (%d dropped) in %s\n",
		lr2.ok, lr2.wall.Seconds(), len(spans), tr.dropped.Load(), spansPath)
	fmt.Fprintf(w, "unattributed: %.1f us of the %.1f us client-observed median (traced) lies outside every handler span: client, net/http and loopback\n",
		lv["server.outside_us.p50"], float64(lr2.all.Quantile(0.5))/1e3)
	printTable(w, perLayer, lv, nil)
	return lv, lr2, nil
}

// record is one line of a recorded set.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Result   *result `json:"result"`
}

func appendRecord(path string, cfg config, res *result) error {
	rec := record{Workload: cfg.workload, Seed: cfg.seed, Result: res}
	if cfg.trace {
		rec.Trace = 1
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(b, '\n'))
	return errors.Join(err, f.Close())
}
