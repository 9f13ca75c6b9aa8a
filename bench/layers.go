package main

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"

	"fairindex"
	"fairindex/internal/stream"
)

// quantile returns the nearest-rank q-quantile of xs, or 0 when xs is
// empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// procStats is a process-wide snapshot behind the runtime.* metrics.
// Client and server share the process, so CPU and allocations cover
// both.
type procStats struct {
	cpu            time.Duration
	alloc, mallocs uint64
	gcs            uint32
	pauseNS        uint64
}

func readProc() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procStats{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc, mallocs: ms.Mallocs, gcs: ms.NumGC, pauseNS: ms.PauseTotalNs,
	}
}

// add adds the counters' growth from a to b.
func (p *procStats) add(a, b procStats) {
	p.cpu += b.cpu - a.cpu
	p.alloc += b.alloc - a.alloc
	p.mallocs += b.mallocs - a.mallocs
	p.gcs += b.gcs - a.gcs
	p.pauseNS += b.pauseNS - a.pauseNS
}

// runtimeMetrics reports the counters' growth p over ops operations.
func runtimeMetrics(vals map[string]float64, p procStats, ops float64) {
	vals["runtime.cpu_us_per_op"] = float64(p.cpu) / 1e3 / ops
	vals["runtime.alloc_bytes_per_op"] = float64(p.alloc) / ops
	vals["runtime.mallocs_per_op"] = float64(p.mallocs) / ops
	vals["runtime.gc_cycles"] = float64(p.gcs)
	vals["runtime.gc_pause_ms"] = float64(p.pauseNS) / 1e6
}

// liveHeapMB returns the live heap. It collects twice: objects cached
// in a sync.Pool survive the first collection.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// buildMetrics reports the median of each build.* quantity over the
// BuildStream calls the run made. The index's own timers split a build
// into partition construction (BuildTime) and final training plus
// evaluation (TrainTime); other is the rest of the wall time: ingest,
// encoding and assembling the index.
func buildMetrics(vals map[string]float64, bs []buildSample) {
	var total, partition, train, cpu, other, allocs, mb, gcs []float64
	for _, b := range bs {
		total = append(total, b.wall.Seconds())
		partition = append(partition, b.partition.Seconds())
		train = append(train, b.train.Seconds())
		cpu = append(cpu, b.trainCPU.Seconds())
		other = append(other, (b.wall - b.partition - b.train).Seconds())
		allocs = append(allocs, float64(b.allocs))
		mb = append(mb, float64(b.allocBytes)/1e6)
		gcs = append(gcs, float64(b.gcs))
	}
	vals["build.total_s"] = median(total)
	vals["build.index_build_s"] = median(partition)
	vals["build.train_s"] = median(train)
	vals["build.train_cpu_s"] = median(cpu)
	vals["build.other_s"] = median(other)
	vals["build.allocs"] = median(allocs)
	vals["build.alloc_mb"] = median(mb)
	vals["build.gc_cycles"] = median(gcs)
}

const layerRepeats = 5

// ingestMetrics times stream.Ingest over the workload's build source.
func ingestMetrics(vals map[string]float64, src fairindex.Source) error {
	var secs, allocs []float64
	for range layerRepeats {
		if err := src.Reset(); err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		if _, err := stream.Ingest(src, 0); err != nil {
			return err
		}
		secs = append(secs, time.Since(t0).Seconds())
		runtime.ReadMemStats(&m1)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
	}
	vals["stream.ingest_s"] = median(secs)
	vals["stream.ingest_allocs"] = median(allocs)
	return nil
}

// codecMetrics times UnmarshalBinary and MarshalBinary of the served
// artifacts, the work a registry load and a promotion do.
func codecMetrics(vals map[string]float64, artifacts [][]byte) error {
	var un, mar []float64
	for range layerRepeats {
		for _, data := range artifacts {
			var ix fairindex.Index
			t0 := time.Now()
			if err := ix.UnmarshalBinary(data); err != nil {
				return err
			}
			un = append(un, float64(time.Since(t0))/1e3)
			t0 = time.Now()
			if _, err := ix.MarshalBinary(); err != nil {
				return err
			}
			mar = append(mar, float64(time.Since(t0))/1e3)
		}
	}
	vals["index.unmarshal_us"] = median(un)
	vals["index.marshal_us"] = median(mar)
	return nil
}

var sink int

// locateNS returns the median over rounds of the mean Locate time per
// point. Locate takes a few nanoseconds, below what one clock read
// resolves, so it is timed over the whole point set per round.
func locateNS(ixs []*fairindex.Index, lats, lons []float64) (float64, error) {
	if len(lats) == 0 {
		return 0, nil
	}
	var per []float64
	for range 2 * layerRepeats {
		t0 := time.Now()
		for i := range lats {
			r, err := ixs[i].Locate(lats[i], lons[i])
			if err != nil {
				return 0, err
			}
			sink += r
		}
		per = append(per, float64(time.Since(t0))/float64(len(lats)))
	}
	return median(per), nil
}

// replayKernels times the kernel call behind every distinct request
// input of the workload, on the index that answered it, and returns
// the median per operation type in nanoseconds (0 for types the
// workload does not send). Appends go to a freshly read copy of the
// served artifact.
func replayKernels(s *setup) ([numOps]float64, error) {
	var (
		out        [numOps]float64
		per        [numOps][]float64
		ixs        []*fairindex.Index
		lats, lons []float64
		fresh      *fairindex.Index
	)
	for i := range s.reqs {
		r := &s.reqs[i]
		ix := s.served(r)
		if r.op == opLocate {
			ixs, lats, lons = append(ixs, ix), append(lats, r.lat), append(lons, r.lon)
			continue
		}
		if r.op == opAppend && fresh == nil {
			var err error
			if fresh, err = fairindex.ReadIndex(bytes.NewReader(s.artifacts[0])); err != nil {
				return out, err
			}
		}
		t0 := time.Now()
		var err error
		switch r.op {
		case opBatch:
			err = ix.LocateBatchInto(make([]int, len(r.lats)), r.lats, r.lons)
		case opRange:
			_, err = ix.RangeQuery(r.rect)
		case opKNN:
			_, err = ix.NearestRegions(r.lat, r.lon, knnK)
		case opStats:
			err = windowStats(ix, r)
		case opAppend:
			_, err = fresh.AppendBatch(r.recs)
		}
		if err != nil {
			return out, err
		}
		per[r.op] = append(per[r.op], float64(time.Since(t0)))
	}
	var err error
	if out[opLocate], err = locateNS(ixs, lats, lons); err != nil {
		return out, err
	}
	for op := opBatch; op < numOps; op++ {
		out[op] = median(per[op])
	}
	return out, nil
}

// windowStats is the kernel work of one /v1/stats request: resolve the
// rectangle, then aggregate (every metric for the POST form, the
// legacy aggregate for the GET form).
func windowStats(ix *fairindex.Index, r *request) error {
	ovs, err := ix.RangeQuery(r.rect)
	if err != nil {
		return err
	}
	regions := make([]int, len(ovs))
	for i, ov := range ovs {
		regions[i] = ov.Region
	}
	if r.body != nil {
		_, err = ix.GroupStatsMetrics(0, regions)
	} else {
		_, err = ix.GroupStats(0, regions)
	}
	return err
}

// spanMetrics derives the server, router and client per-layer metrics
// from the traced pass's spans. kernelNS is the replayed kernel median
// per operation type; wall is the traced pass's timed phase. It
// returns the sampled server handler time.
func spanMetrics(vals map[string]float64, spans []span, kernelNS [numOps]float64, wall time.Duration) (busyNS float64) {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	layerOf := func(s span) int {
		if int(s.name) >= numLayers*numOps {
			return -1
		}
		return int(s.name) / numOps
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }

	var (
		unattributed, handler, rHandler, rSelf, rScatter, rMerge, rFanout []float64
		attempt, backend, hop                                             []float64
		opHandler, opRouterSelf                                           [numOps][]float64
		kernelSumNS                                                       float64
	)
	for _, s := range spans {
		kids := children[s.id]
		switch {
		case layerOf(s) == layerClient:
			unattributed = append(unattributed, us(selfTime(s, kids)))
		case layerOf(s) == layerServer:
			op := int(s.name) % numOps
			handler = append(handler, us(s.dur()))
			opHandler[op] = append(opHandler[op], us(s.dur()))
			busyNS += float64(s.dur())
			kernelSumNS += kernelNS[op]
		case layerOf(s) == layerRouter:
			op := int(s.name) % numOps
			var atts []span
			for _, k := range kids {
				if k.name == spanAttempt {
					atts = append(atts, k)
				}
			}
			self := us(selfTime(s, atts))
			rHandler = append(rHandler, us(s.dur()))
			rSelf = append(rSelf, self)
			opRouterSelf[op] = append(opRouterSelf[op], self)
			rFanout = append(rFanout, float64(len(atts)))
			if len(atts) > 0 {
				first, last := atts[0].start, atts[0].end
				for _, a := range atts[1:] {
					first, last = min(first, a.start), max(last, a.end)
				}
				rScatter = append(rScatter, us(first-s.start))
				rMerge = append(rMerge, us(s.end-last))
			}
		case s.name == spanAttempt:
			attempt = append(attempt, us(s.dur()))
			for _, k := range kids {
				if layerOf(k) == layerServer {
					backend = append(backend, us(k.dur()))
					hop = append(hop, us(s.dur()-k.dur()))
				}
			}
		}
	}

	vals["server.outside_us.p50"] = median(unattributed)
	vals["server.handler_us.p50"] = median(handler)
	vals["server.handler_us.p99"] = quantile(handler, 0.99)
	vals["server.busy_share"] = busyNS * sampleEvery / (float64(wall) * float64(runtime.GOMAXPROCS(0)))
	for op, name := range opNames {
		p50 := median(opHandler[op])
		vals["server."+name+".handler_us.p50"] = p50
		if len(opHandler[op]) > 0 {
			vals["server."+name+".wire_us.p50"] = max(p50-kernelNS[op]/1e3, 0)
		}
	}
	if busyNS > 0 {
		vals["index.kernel_share"] = kernelSumNS / busyNS
	}

	vals["router.handler_us.p50"] = median(rHandler)
	vals["router.handler_us.p99"] = quantile(rHandler, 0.99)
	vals["router.self_us.p50"] = median(rSelf)
	vals["router.scatter_us.p50"] = median(rScatter)
	vals["router.merge_us.p50"] = median(rMerge)
	if len(rFanout) > 0 {
		var sum float64
		for _, f := range rFanout {
			sum += f
		}
		vals["router.fanout"] = sum / float64(len(rFanout))
	}
	vals["router.attempt_us.p50"] = median(attempt)
	vals["router.attempt_us.p99"] = quantile(attempt, 0.99)
	vals["router.backend_us.p50"] = median(backend)
	vals["router.hop_us.p50"] = median(hop)
	for _, op := range routedOps {
		vals["router."+opNames[op]+".self_us.p50"] = median(opRouterSelf[op])
	}
	return busyNS
}

// registryMetrics reports how the wrapped servers resolved indexes in
// the traced pass's timed phase. Every load beyond the resident
// growth evicted one entry.
func registryMetrics(vals map[string]float64, tr *tracer, loadedBefore, loadedAfter int, busyNS float64) {
	st := &tr.reg
	st.mu.Lock()
	defer st.mu.Unlock()
	vals["registry.lookups"] = float64(st.lookups)
	vals["registry.misses"] = float64(st.misses)
	if st.lookups > 0 {
		vals["registry.hit_ratio"] = 1 - float64(st.misses)/float64(st.lookups)
	}
	hits := make([]float64, len(st.hitNS))
	for i, d := range st.hitNS {
		hits[i] = float64(d)
	}
	vals["registry.hit_ns.p50"] = median(hits)
	if st.misses > 0 {
		vals["registry.load_us.p50"] = float64(st.load.Quantile(0.5)) / 1e3
		vals["registry.load_us.p99"] = float64(st.load.Quantile(0.99)) / 1e3
	}
	vals["registry.evictions"] = float64(max(st.misses-int64(loadedAfter-loadedBefore), 0))
	if busyNS > 0 {
		vals["registry.load_share"] = float64(st.loadNS) / (busyNS * sampleEvery)
	}
}
