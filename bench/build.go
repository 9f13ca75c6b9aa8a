package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fairindex"
	"fairindex/internal/rebuild"
	"fairindex/internal/registry"
)

// buildSetup is the build workload's prepared state: the city source,
// the set-up index every rebuilt candidate is gated against, and what
// each cycle's answers must reproduce.
type buildSetup struct {
	src      fairindex.Source
	serving  *fairindex.Index
	quality  quality
	artifact []byte
	path     string // the promoted artifact each cycle replaces
	cells    []int  // the set-up index's region of every grid cell
	// lats and lons are city locations for the Locate replay.
	lats, lons []float64
}

const replayPoints = 4096

func newBuildSetup(cfg config) (*buildSetup, error) {
	city, err := newCity(cfg.records)
	if err != nil {
		return nil, err
	}
	b := &buildSetup{src: fairindex.NewDatasetSource(city)}
	if b.serving, _, err = timedBuild(b.src, servedOptions...); err != nil {
		return nil, err
	}
	if b.quality, err = qualityOf(b.serving); err != nil {
		return nil, err
	}
	if b.artifact, err = b.serving.MarshalBinary(); err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.out, "promote")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b.path = filepath.Join(dir, "city"+registry.Ext)
	if err := rebuild.PromoteFile(b.path, b.serving); err != nil {
		return nil, err
	}
	if b.cells, err = cellRegions(b.serving); err != nil {
		return nil, err
	}
	for i := 0; i < replayPoints && i < len(city.Records); i++ {
		b.lats = append(b.lats, city.Records[i].Lat)
		b.lons = append(b.lons, city.Records[i].Lon)
	}
	return b, nil
}

// timingBytes is the length of the build's partition and training
// times, which an artifact stores as varints: the only part of its
// length that depends on how long the build took. A small build under
// the race detector straddles the 134 ms at which such a varint grows
// a byte.
func timingBytes(ix *fairindex.Index) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutVarint(buf[:], int64(ix.BuildTime())) + binary.PutVarint(buf[:], int64(ix.TrainTime()))
}

func cellRegions(ix *fairindex.Index) ([]int, error) {
	g := ix.Grid()
	out := make([]int, 0, g.U*g.V)
	for row := range g.U {
		for col := range g.V {
			r, err := ix.LocateCell(fairindex.Cell{Row: row, Col: col})
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// cycleSample is one timed rebuild cycle.
type cycleSample struct {
	total, gate, promote time.Duration
	build                buildSample
	slow                 float64 // the host's slowdown around the cycle
}

// cycle runs what the drift controller runs: build a candidate from
// the source, gate it against the serving index with the default
// budgets, and promote it atomically over the serving artifact.
func (b *buildSetup) cycle() (cycleSample, error) {
	t0 := time.Now()
	cand, bs, err := timedBuild(b.src, servedOptions...)
	if err != nil {
		return cycleSample{}, err
	}
	t1 := time.Now()
	dec, err := rebuild.Evaluate(b.serving, cand, nil, nil)
	if err != nil {
		return cycleSample{}, err
	}
	t2 := time.Now()
	if err := rebuild.PromoteFile(b.path, cand); err != nil {
		return cycleSample{}, err
	}
	t3 := time.Now()
	c := cycleSample{total: t3.Sub(t0), gate: t2.Sub(t1), promote: t3.Sub(t2), build: bs}
	return c, b.verify(cand, dec)
}

// verify is the build oracle: the gate promotes, and the candidate
// answers every cell as the set-up index does, with the same artifact
// length apart from the stored build timings, and bit-identical ENCE
// and accuracy.
func (b *buildSetup) verify(cand *fairindex.Index, dec rebuild.Decision) error {
	if !dec.Promote {
		return fmt.Errorf("gate refused a rebuild of unchanged data: %v", dec.Refusals)
	}
	q, err := qualityOf(cand)
	if err != nil {
		return err
	}
	if q.bytes-timingBytes(cand) != b.quality.bytes-timingBytes(b.serving) ||
		math.Float64bits(q.ence) != math.Float64bits(b.quality.ence) ||
		math.Float64bits(q.accuracy) != math.Float64bits(b.quality.accuracy) {
		return fmt.Errorf("rebuild differs: %d bytes, ence %v, accuracy %v; set-up %d bytes, ence %v, accuracy %v",
			q.bytes, q.ence, q.accuracy, b.quality.bytes, b.quality.ence, b.quality.accuracy)
	}
	cells, err := cellRegions(cand)
	if err != nil {
		return err
	}
	for i, r := range cells {
		if r != b.cells[i] {
			return fmt.Errorf("rebuild locates cell %d in region %d, set-up index in %d", i, r, b.cells[i])
		}
	}
	return nil
}

// pass runs cycles until their summed time reaches measure (at least
// one), with a host probe before the first cycle and after each
// one. Oracle failures are counted in res and reported to w.
func (b *buildSetup) pass(hp *hostProbe, measure time.Duration, res *result, w io.Writer) ([]cycleSample, error) {
	var (
		cycles  []cycleSample
		elapsed time.Duration
	)
	slow, err := hp.slowdown()
	if err != nil {
		return nil, err
	}
	for len(cycles) == 0 || elapsed < measure {
		// Cycles run minutes apart in the drift controller: each starts
		// on a collected heap, not amid the last one's garbage.
		runtime.GC()
		c, err := b.runCycle(res, w)
		if err != nil {
			return nil, err
		}
		next, err := hp.slowdown()
		if err != nil {
			return nil, err
		}
		c.slow, slow = (slow+next)/2, next
		cycles = append(cycles, c)
		elapsed += c.total
	}
	return cycles, nil
}

// runCycle runs and verifies one cycle, counting it in res. A cycle
// that cannot run at all is an error; one whose output is wrong is a
// failure.
func (b *buildSetup) runCycle(res *result, w io.Writer) (cycleSample, error) {
	c, err := b.cycle()
	res.Attempted++
	if err != nil {
		if c.total == 0 {
			return c, err
		}
		res.Failed++
		fmt.Fprintf(w, "oracle: %v\n", err)
	}
	return c, nil
}

// scaledRate is cycles per second over the cycles' summed time, each
// cycle's time divided by the host's slowdown around it.
func scaledRate(cycles []cycleSample) float64 {
	var sum float64
	for _, c := range cycles {
		sum += c.total.Seconds() / c.slow
	}
	return float64(len(cycles)) / sum
}

func runBuild(cfg config, w io.Writer) (*result, error) {
	n := cfg.setups
	if cfg.trace {
		n = 1
	}
	hp, err := newHostProbe(cfg.clients, cfg.probe)
	if err != nil {
		return nil, err
	}
	defer hp.stop()
	var b *buildSetup
	secs, slows, err := timeSetUps(hp, n, func() error {
		b = nil
		var err error
		b, err = newBuildSetup(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	setupS := make([]float64, len(secs))
	for i, k := range slows {
		setupS[i] = secs[i] / k
	}
	res := &result{}
	if cfg.warmup > 0 {
		if _, err := b.runCycle(res, w); err != nil {
			return nil, err
		}
	}
	p0 := readProc()
	cycles, err := b.pass(hp, cfg.measure, res, w)
	if err != nil {
		return nil, err
	}
	var proc procStats
	proc.add(p0, readProc())
	heap := liveHeapMB()

	// A run has a handful of cycles: their percentiles come from the
	// exact durations, not a histogram.
	var lat, rawLat, cycleSlows []float64
	for _, c := range cycles {
		lat = append(lat, ms(c.total)/c.slow)
		rawLat = append(rawLat, ms(c.total))
		cycleSlows = append(cycleSlows, c.slow)
	}
	vals := map[string]float64{
		"setup_s":        median(setupS),
		"throughput":     scaledRate(cycles),
		"latency_p50_ms": median(lat),
		"latency_p99_ms": quantile(lat, 0.99),
		"live_heap_mb":   heap,
		"ence":           b.quality.ence,
		"accuracy":       b.quality.accuracy,
		"artifact_bytes": float64(b.quality.bytes),
	}
	fmt.Fprintf(w, "workload build  seed %d  %d timed cycles\n", cfg.seed, len(cycles))
	fmt.Fprintf(w, "as measured: set-ups %s s  cycles %s ms\n", fmtList(secs), fmtList(rawLat))
	fmt.Fprintf(w, "host slowdown: set-ups %s  cycles %s\n", fmtList(slows), fmtList(cycleSlows))
	printTable(w, endToEnd, vals, map[string]string{
		"latency_p50_ms": fmt.Sprintf("n=%d cycles", len(lat)),
		"latency_p99_ms": fmt.Sprintf("n=%d cycles (the slowest below 100)", len(lat)),
	})
	if !cfg.trace {
		res.Correct = res.Failed == 0
		return res, res.fill(endToEnd, vals)
	}

	traced, err := b.pass(hp, cfg.measure, res, w)
	if err != nil {
		return nil, err
	}
	lv := layerDefaults()
	var bs []buildSample
	var gate, promote []float64
	for _, c := range traced {
		bs = append(bs, c.build)
		gate = append(gate, float64(c.gate)/1e6)
		promote = append(promote, float64(c.promote)/1e6)
	}
	buildMetrics(lv, bs)
	lv["rebuild.gate_ms"] = median(gate)
	lv["rebuild.promote_ms"] = median(promote)
	if err := ingestMetrics(lv, b.src); err != nil {
		return nil, err
	}
	if err := codecMetrics(lv, [][]byte{b.artifact}); err != nil {
		return nil, err
	}
	ixs := make([]*fairindex.Index, len(b.lats))
	for i := range ixs {
		ixs[i] = b.serving
	}
	if lv["index.locate_ns.p50"], err = locateNS(ixs, b.lats, b.lons); err != nil {
		return nil, err
	}
	runtimeMetrics(lv, proc, float64(len(cycles)))
	lv["host.slowdown"] = median(cycleSlows)
	lv["trace.overhead"] = 1 - scaledRate(traced)/scaledRate(cycles)
	fmt.Fprintf(w, "traced pass: %d cycles\n", len(traced))
	printTable(w, perLayer, lv, nil)
	res.Correct = res.Failed == 0
	return res, res.fill(perLayer, lv)
}
