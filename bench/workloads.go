package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"fairindex"
	"fairindex/internal/dataset"
	"fairindex/internal/registry"
	"fairindex/internal/router"
	"fairindex/internal/server"
	"fairindex/internal/shard"
)

// Workload names, in the order the README gives them.
var workloadNames = []string{"point", "analytics", "churn", "routed", "build"}

// config is one run's shape. The command line sets workload, seed,
// measure, trace and out; the rest are the recorded defaults, which
// tests shrink to smoke size.
type config struct {
	workload string
	seed     int64
	warmup   time.Duration
	measure  time.Duration
	records  int // the city every workload is built from
	setups   int // set-ups per untraced run; setup_s is their median
	slices   int // timed slices of a serving pass, each probed around
	probe    int // rounds of each kind of work in one host probe
	trace    bool
	out      string // run directory, inside the checkout
	clients  int
}

func defaultConfig(workload string, seed int64, seconds int, trace bool, out string) config {
	return config{
		workload: workload,
		seed:     seed,
		warmup:   time.Second,
		measure:  time.Duration(seconds) * time.Second,
		records:  100_000,
		setups:   3,
		slices:   10,
		probe:    5,
		trace:    trace,
		out:      out,
		clients:  runtime.GOMAXPROCS(0),
	}
}

// The served index: the paper's fair KD-tree at height 8.
var servedOptions = []fairindex.Option{
	fairindex.WithMethod(fairindex.MethodFairKD),
	fairindex.WithHeight(8),
	fairindex.WithSeed(11),
}

// buildSample is one timed BuildStream call.
type buildSample struct {
	wall, partition, train, trainCPU time.Duration
	allocs, allocBytes               uint64
	gcs                              uint32
}

// timedBuild rewinds src and builds from it, reading the index's own
// phase timers and the allocator's counters around the call.
func timedBuild(src fairindex.Source, opts ...fairindex.Option) (*fairindex.Index, buildSample, error) {
	if err := src.Reset(); err != nil {
		return nil, buildSample{}, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	ix, err := fairindex.BuildStream(src, opts...)
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, buildSample{}, fmt.Errorf("build: %w", err)
	}
	return ix, buildSample{
		wall: wall, partition: ix.BuildTime(), train: ix.TrainTime(), trainCPU: ix.TrainCPUTime(),
		allocs: m1.Mallocs - m0.Mallocs, allocBytes: m1.TotalAlloc - m0.TotalAlloc, gcs: m1.NumGC - m0.NumGC,
	}, nil
}

// quality is what the served (or built) artifacts promise their users.
type quality struct {
	ence, accuracy float64
	bytes          int
}

func qualityOf(ix *fairindex.Index) (quality, error) {
	rep, err := ix.Report(0)
	if err != nil {
		return quality{}, err
	}
	data, err := ix.MarshalBinary()
	if err != nil {
		return quality{}, err
	}
	return quality{ence: rep.ENCE, accuracy: rep.Accuracy, bytes: len(data)}, nil
}

// setup is a prepared serving workload: the system under test, its
// traffic, and what the per-layer metrics need from set-up.
type setup struct {
	topo    topology
	reqs    []request
	seq     []int32
	quality quality
	builds  []buildSample
	split   time.Duration // shard.Split, routed only
	src     fairindex.Source
	// served maps a request to the index whose kernels answer it, for
	// the kernel replay; artifacts are the served indexes' bytes (the
	// replay appends to a fresh copy of the first).
	served    func(*request) *fairindex.Index
	artifacts [][]byte
	// expect computes the oracle: every request's expected reply.
	expect func() error
	// final is the end-of-run oracle, when the workload has one.
	final func() error
}

// topology serves a prepared system on loopback listeners.
type topology interface {
	// start serves the system and returns its front. With a tracer,
	// every server and router is wrapped in span recording and the
	// router gets the tracing transport.
	start(tr *tracer) (*front, error)
}

type front struct {
	url  string
	stop func()
	// health sums the router's per-replica attempts and failures.
	health func() (attempts, failures int64)
}

// listen serves h through a plain http.Server on 127.0.0.1:0, the way
// `fairindexctl serve` and `route` do.
func listen(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed after Close
	}()
	return "http://" + ln.Addr().String(), func() {
		hs.Close()
		<-done
	}, nil
}

// single is one server.Server.
type single struct{ srv *server.Server }

func (s single) start(tr *tracer) (*front, error) {
	var h http.Handler = s.srv
	if tr != nil {
		h = tr.wrap(layerServer, s.srv, s.srv.Registry())
	}
	url, stop, err := listen(h)
	if err != nil {
		return nil, err
	}
	return &front{url: url, stop: stop}, nil
}

// routed is a router over shard replicas, each its own server.Server.
type routed struct {
	manifest *shard.Manifest
	replicas [][]*server.Server // manifest shard order
}

func (t routed) start(tr *tracer) (*front, error) {
	var stops []func()
	stopAll := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
		// The router's backend connections idle in the default
		// transport; close them with the servers they led to.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	}
	backends := make([]router.Backend, len(t.replicas))
	for i, reps := range t.replicas {
		backends[i].Name = t.manifest.Shards[i].Name
		for _, srv := range reps {
			var h http.Handler = srv
			if tr != nil {
				h = tr.wrap(layerServer, srv, srv.Registry())
			}
			url, stop, err := listen(h)
			if err != nil {
				stopAll()
				return nil, err
			}
			stops = append(stops, stop)
			backends[i].URLs = append(backends[i].URLs, url)
		}
	}
	var opts []router.Option
	if tr != nil {
		opts = append(opts, router.WithClient(&http.Client{Transport: tracingRT{tr: tr, base: http.DefaultTransport}}))
	}
	rt, err := router.New(t.manifest, backends, opts...)
	if err != nil {
		stopAll()
		return nil, err
	}
	var h http.Handler = rt
	if tr != nil {
		h = tr.wrap(layerRouter, rt, nil)
	}
	url, stop, err := listen(h)
	if err != nil {
		stopAll()
		return nil, err
	}
	stops = append(stops, stop)
	return &front{url: url, stop: stopAll, health: func() (a, f int64) {
		for _, b := range backends {
			for _, rs := range rt.ShardHealth(b.Name) {
				a += rs.Attempts
				f += rs.Failures
			}
		}
		return a, f
	}}, nil
}

// newSetup prepares one serving workload and its oracle.
func newSetup(cfg config) (*setup, error) {
	s, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	return s, s.expect()
}

// prepare builds one serving workload's system and traffic.
func prepare(cfg config) (*setup, error) {
	switch cfg.workload {
	case "point", "analytics", "routed":
		city, err := newCity(cfg.records)
		if err != nil {
			return nil, err
		}
		src := fairindex.NewDatasetSource(city)
		ix, bs, err := timedBuild(src, servedOptions...)
		if err != nil {
			return nil, err
		}
		q, err := qualityOf(ix)
		if err != nil {
			return nil, err
		}
		s := &setup{quality: q, builds: []buildSample{bs}, src: src,
			served: func(*request) *fairindex.Index { return ix }}
		data, err := ix.MarshalBinary()
		if err != nil {
			return nil, err
		}
		s.artifacts = [][]byte{data}
		switch cfg.workload {
		case "point":
			err = s.point(cfg, city, ix)
		case "analytics":
			err = s.analytics(cfg, city, ix)
		default:
			err = s.routed(cfg, city, ix)
		}
		if err != nil {
			return nil, err
		}
		return s, nil
	case "churn":
		return newChurn(cfg)
	}
	return nil, fmt.Errorf("unknown serving workload %q", cfg.workload)
}

// point: one server, one index, 100% GET /v1/locate.
func (s *setup) point(cfg config, city *dataset.Dataset, ix *fairindex.Index) error {
	srv := server.New(ix)
	s.topo = single{srv}
	g := newGen(cfg.seed, 1, city)
	var byOp [numOps][]int
	for range locateTable {
		lat, lon := g.point()
		byOp[opLocate] = append(byOp[opLocate], len(s.reqs))
		s.reqs = append(s.reqs, locateReq("", lat, lon))
	}
	s.seq = mix(g.rng, [numOps]int{opLocate: 1}, byOp)
	s.expect = func() error { return expectAll(srv, s.reqs) }
	return nil
}

// statsReply is the part of a /v1/stats reply the analytics oracle
// checks.
type statsReply struct {
	Count   int                `json:"count"`
	Metrics map[string]float64 `json:"metrics"`
	Regions []struct {
		Region int `json:"region"`
	} `json:"regions"`
}

func parseStats(body []byte) (statsReply, []int, error) {
	var sr statsReply
	if err := json.Unmarshal(body, &sr); err != nil {
		return sr, nil, fmt.Errorf("stats reply: %w", err)
	}
	ids := make([]int, len(sr.Regions))
	for i, r := range sr.Regions {
		ids[i] = r.Region
	}
	return sr, ids, nil
}

// analytics: one server; batch locates, range, kNN and window stats
// next to appends. Stats replies change as appends land, so they are
// parsed: same region ids, a count no lower than before the run, every
// metric present. At the end, a whole-box count must equal its value
// before the run plus every record an append acknowledged.
func (s *setup) analytics(cfg config, city *dataset.Dataset, ix *fairindex.Index) error {
	srv := server.New(ix)
	s.topo = single{srv}
	g := newGen(cfg.seed, 2, city)
	pool, err := newAppendPool(cfg.records/5, cfg.seed)
	if err != nil {
		return err
	}
	var byOp [numOps][]int
	add := func(r request) {
		byOp[r.op] = append(byOp[r.op], len(s.reqs))
		s.reqs = append(s.reqs, r)
	}
	for range batchTable {
		add(batchReq(g))
	}
	for range rangeTable {
		add(rangeReq(g.window()))
	}
	for range knnTable {
		add(knnReq(g.point()))
	}
	for range statsTable {
		add(statsPostReq(g.window()))
	}
	var acked atomic.Int64
	for i := 0; i+appendChunk <= len(pool); i += appendChunk {
		r := appendReq(pool[i : i+appendChunk])
		r.check = func(body []byte) error {
			var reply struct {
				Appended int `json:"appended"`
			}
			if err := json.Unmarshal(body, &reply); err != nil {
				return fmt.Errorf("append reply: %w", err)
			}
			if reply.Appended != appendChunk {
				return fmt.Errorf("append acknowledged %d of %d records", reply.Appended, appendChunk)
			}
			acked.Add(int64(reply.Appended))
			return nil
		}
		add(r)
	}
	s.seq = mix(g.rng, [numOps]int{opBatch: 30, opRange: 20, opKNN: 20, opStats: 20, opAppend: 10}, byOp)

	s.expect = func() error {
		if err := expectAll(srv, s.reqs); err != nil {
			return err
		}
		nMetrics := len(fairindex.Metrics())
		for i := range s.reqs {
			r := &s.reqs[i]
			if r.op != opStats {
				continue
			}
			before, ids, err := parseStats(r.want)
			if err != nil {
				return err
			}
			r.want = nil
			r.check = func(body []byte) error {
				got, gotIDs, err := parseStats(body)
				switch {
				case err != nil:
					return err
				case !slices.Equal(gotIDs, ids):
					return errors.New("stats window resolved to different regions")
				case got.Count < before.Count:
					return fmt.Errorf("stats count %d fell below its pre-run %d", got.Count, before.Count)
				case len(got.Metrics) != nMetrics:
					return fmt.Errorf("stats reply has %d metrics, want %d", len(got.Metrics), nMetrics)
				}
				return nil
			}
		}
		whole := statsPostReq(ix.Box())
		base, err := wholeCount(srv, &whole)
		if err != nil {
			return err
		}
		s.final = func() error {
			got, err := wholeCount(srv, &whole)
			if err != nil {
				return err
			}
			if want := base + int(acked.Load()); got != want {
				return fmt.Errorf("whole-box stats count %d, want %d before the run + %d appended", got, base, acked.Load())
			}
			return nil
		}
		return nil
	}
	return nil
}

func wholeCount(h http.Handler, r *request) (int, error) {
	code, body := serve(h, r)
	if code != http.StatusOK {
		return 0, fmt.Errorf("whole-box stats: status %d: %s", code, body)
	}
	sr, _, err := parseStats(body)
	return sr.Count, err
}

// routedShards and routedReplicas shape the routed topology.
const (
	routedShards   = 4
	routedReplicas = 2
)

// routed: the router over a 4-way split of the point index, two
// replicas per shard. Expected bodies come from a whole-index server,
// so every routed reply also checks sharded-vs-whole parity.
func (s *setup) routed(cfg config, city *dataset.Dataset, ix *fairindex.Index) error {
	t0 := time.Now()
	m, shards, err := shard.Split(ix, routedShards)
	if err != nil {
		return err
	}
	s.split = time.Since(t0)
	topo := routed{manifest: m, replicas: make([][]*server.Server, len(shards))}
	s.quality.bytes = 0
	for i, sx := range shards {
		for range routedReplicas {
			topo.replicas[i] = append(topo.replicas[i], server.New(sx))
		}
		data, err := sx.MarshalBinary()
		if err != nil {
			return err
		}
		s.quality.bytes += len(data)
	}
	s.topo = topo

	g := newGen(cfg.seed, 4, city)
	var byOp [numOps][]int
	add := func(r request) {
		byOp[r.op] = append(byOp[r.op], len(s.reqs))
		s.reqs = append(s.reqs, r)
	}
	for range locateTable {
		lat, lon := g.point()
		add(locateReq("", lat, lon))
	}
	for range batchTable {
		add(batchReq(g))
	}
	for range statsTable {
		add(statsPostReq(g.window()))
	}
	s.seq = mix(g.rng, [numOps]int{opLocate: 60, opBatch: 20, opStats: 20}, byOp)
	s.expect = func() error { return expectAll(server.New(ix), s.reqs) }
	return nil
}

// Churn registry: 8 artifacts, 3 resident.
const churnMaxLoaded = 3

var churnHeights = []int{5, 6, 7, 8}

// newChurn: a registry directory of 8 distinct artifacts (a tenth-size
// city; fair and median KD-trees at heights 5–8) behind one server
// with at most 3 resident, so lazy loads and LRU evictions sit on the
// request path. Index names are Zipf(1.2)-popular.
func newChurn(cfg config) (*setup, error) {
	city, err := newCity(cfg.records / 10)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.out, "registry")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	src := fairindex.NewDatasetSource(city)
	s := &setup{src: src}
	var names []string
	served := map[string]*fairindex.Index{}
	methods := []struct {
		name   string
		method fairindex.Method
	}{{"fair", fairindex.MethodFairKD}, {"median", fairindex.MethodMedianKD}}
	for _, m := range methods {
		for _, h := range churnHeights {
			ix, bs, err := timedBuild(src, fairindex.WithMethod(m.method), fairindex.WithHeight(h), fairindex.WithSeed(11))
			if err != nil {
				return nil, err
			}
			s.builds = append(s.builds, bs)
			q, err := qualityOf(ix)
			if err != nil {
				return nil, err
			}
			s.quality.ence += q.ence / 8
			s.quality.accuracy += q.accuracy / 8
			s.quality.bytes += q.bytes
			name := fmt.Sprintf("%s-h%d", m.name, h)
			data, err := ix.MarshalBinary()
			if err != nil {
				return nil, err
			}
			if err := os.WriteFile(filepath.Join(dir, name+registry.Ext), data, 0o644); err != nil {
				return nil, err
			}
			s.artifacts = append(s.artifacts, data)
			names = append(names, name)
			served[name] = ix
		}
	}
	reg, err := registry.Open(dir, registry.WithMaxLoaded(churnMaxLoaded))
	if err != nil {
		return nil, err
	}
	srv := server.NewMulti(reg)
	s.topo = single{srv}
	s.served = func(r *request) *fairindex.Index { return served[r.index] }

	// The popularity ranks are fixed, so every seed sees the same
	// working set; the seed draws the requests.
	perm := rand.New(rand.NewSource(1)).Perm(len(names))
	g := newGen(cfg.seed, 3, city)
	hot := rand.NewZipf(g.rng, zipfNames, 1, uint64(len(names)-1))
	zn := func() string { return names[perm[hot.Uint64()]] }
	var byOp [numOps][]int
	add := func(r request) {
		byOp[r.op] = append(byOp[r.op], len(s.reqs))
		s.reqs = append(s.reqs, r)
	}
	for range locateTable {
		lat, lon := g.point()
		add(locateReq(zn(), lat, lon))
	}
	for range statsTable {
		add(statsGetReq(zn(), g.window()))
	}
	s.seq = mix(g.rng, [numOps]int{opLocate: 70, opStats: 30}, byOp)
	// The expected bodies come from a registry that keeps all 8 indexes
	// resident, so every reply also checks that eviction and reloading
	// change no answer, and set-up loads each artifact once.
	s.expect = func() error {
		all, err := registry.Open(dir)
		if err != nil {
			return err
		}
		return expectAll(server.NewMulti(all), s.reqs)
	}
	return s, nil
}
