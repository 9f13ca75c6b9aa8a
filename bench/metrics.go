package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef is one metric of BENCHMARK.json. Bound is the share of the
// baseline median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees. Every metric applies
// to every workload, so each run prints all of them. Times are scaled
// by the host's slowdown (probe.go). Even so, on the recorded box their
// run-to-run spread over ten seeds reached 0.14 (set-up times 0.17),
// and a longer timed phase barely narrowed it, so their bound is the
// largest allowed, 0.25 (README.md, "Bounds"). The live heap repeats
// within 1%. ence, accuracy and artifact_bytes
// are deterministic (the city does not depend on the seed); their tiny
// bound means "must repeat exactly" while still being a positive share.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"ence", "1", "lower", 0.001},
	{"accuracy", "1", "higher", 0.001},
	{"artifact_bytes", "B", "lower", 0.001},
}

// perLayer lists the traced run's per-layer metrics. A metric of a
// layer the workload does not touch reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better})
	}

	for _, op := range opNames {
		add("client."+op+".p99_ms", "ms", "lower")
	}

	add("server.handler_us.p50", "us", "lower")
	add("server.handler_us.p99", "us", "lower")
	add("server.outside_us.p50", "us", "lower")
	add("server.busy_share", "ratio", "lower")
	for _, op := range opNames {
		add("server."+op+".handler_us.p50", "us", "lower")
	}
	for _, op := range opNames {
		add("server."+op+".wire_us.p50", "us", "lower")
	}
	add("server.non2xx", "count", "lower")

	add("index.locate_ns.p50", "ns", "lower")
	for _, op := range opNames[1:] {
		add("index."+op+"_us.p50", "us", "lower")
	}
	add("index.kernel_share", "ratio", "higher")
	add("index.marshal_us", "us", "lower")
	add("index.unmarshal_us", "us", "lower")

	add("registry.lookups", "count", "higher")
	add("registry.misses", "count", "lower")
	add("registry.hit_ratio", "ratio", "higher")
	add("registry.hit_ns.p50", "ns", "lower")
	add("registry.load_us.p50", "us", "lower")
	add("registry.load_us.p99", "us", "lower")
	add("registry.evictions", "count", "lower")
	add("registry.load_share", "ratio", "lower")

	add("router.handler_us.p50", "us", "lower")
	add("router.handler_us.p99", "us", "lower")
	add("router.self_us.p50", "us", "lower")
	add("router.scatter_us.p50", "us", "lower")
	add("router.merge_us.p50", "us", "lower")
	add("router.fanout", "count", "lower")
	add("router.attempt_us.p50", "us", "lower")
	add("router.attempt_us.p99", "us", "lower")
	add("router.backend_us.p50", "us", "lower")
	add("router.hop_us.p50", "us", "lower")
	add("router.attempts_per_call", "ratio", "lower")
	add("router.replica_failures", "count", "lower")
	for _, op := range routedOps {
		add("router."+opNames[op]+".self_us.p50", "us", "lower")
	}

	add("build.total_s", "s", "lower")
	add("build.index_build_s", "s", "lower")
	add("build.train_s", "s", "lower")
	add("build.train_cpu_s", "s", "lower")
	add("build.other_s", "s", "lower")
	add("build.allocs", "count", "lower")
	add("build.alloc_mb", "MB", "lower")
	add("build.gc_cycles", "count", "lower")

	add("stream.ingest_s", "s", "lower")
	add("stream.ingest_allocs", "count", "lower")
	add("rebuild.gate_ms", "ms", "lower")
	add("rebuild.promote_ms", "ms", "lower")
	add("shard.split_ms", "ms", "lower")

	add("runtime.cpu_us_per_op", "us", "lower")
	add("runtime.alloc_bytes_per_op", "B", "lower")
	add("runtime.mallocs_per_op", "count", "lower")
	add("runtime.gc_cycles", "count", "lower")
	add("runtime.gc_pause_ms", "ms", "lower")

	add("host.slowdown", "ratio", "lower")
	add("trace.overhead", "ratio", "lower")
	return defs
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill copies the values named by defs into r.Metrics, in each def's
// unit. A value the run could not produce (NaN, e.g. a ratio over an
// empty sample) is written as 0, so the line always parses as JSON.
func (r *result) fill(defs []metricDef, vals map[string]float64) error {
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return nil
}

// printTable writes defs' values one per line, for the human reader.
func printTable(w io.Writer, defs []metricDef, vals map[string]float64, notes map[string]string) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %14.6g %-6s %s\n", d.Name, vals[d.Name], d.Unit, notes[d.Name])
	}
}

// writeResult prints r as one JSON line.
func writeResult(w io.Writer, r *result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
