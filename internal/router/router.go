// Package router is the scatter-gather front end of sharded serving:
// one HTTP process that presents the whole-index /v1 query API while
// the index itself lives split across N shard backends (each an
// ordinary internal/server process serving one shard artifact from
// fairindex.ExtractShard). Every query whose answer depends only on
// the partition — locate, locate_batch, range and kNN — is answered
// from a fairindex.Layout the router derives from the shard.Manifest,
// which carries the whole index's cell→region table; no shard is
// asked. Window stats are the only fan-out: the window resolves to a
// region list from the same Layout, only the shards owning those
// regions are asked for their raw per-region sufficient statistics,
// and fairindex.MergeWindowStats refolds them. Either way responses
// are bit-identical to a single server holding the whole index, a
// property pinned by the sharded-vs-whole HTTP parity suite and its
// fuzz target. Requests are parsed and replies encoded by
// internal/wire, the same wire layer the shard servers use.
//
// Consistency model: a manifest-answered query reads one manifest
// snapshot and stamps that snapshot's generation, so it is exact for
// the generation it names. A stats fan-out binds to one manifest
// snapshot and verifies each backend reply's Fairindex-Generation
// header against the snapshot's expected shard fingerprint. A mismatch
// — a backend serving a different artifact generation than the
// manifest describes, as happens mid hot-reload — rejects the whole
// fan-out; the router reloads its manifest (when a source is
// configured) and retries the request once against the new snapshot,
// then answers 409. Responses are therefore never assembled from mixed
// generations.
//
// Fault model: one manifest shard name may map to a replica set of
// interchangeable backends serving the same artifact. Each per-shard
// call tries the replicas sequentially — healthy rotation first,
// guided by a passive per-replica circuit breaker (health.go) — with
// the per-shard time budget split across the remaining attempts, so
// one dead replica degrades to its sibling instead of failing the
// request. A shard "fails" only when every replica refused. Only
// window stats can see that, and they degrade instead of failing: live
// shards' statistics are merged exactly and the response carries
// "partial": true naming no invented numbers — the aggregates are the
// true aggregates of the regions that answered. Score and Report are
// whole-index operations (scoring needs the true region centroid
// assignment) and answer 501.
//
// Replicas are deployment configuration, not artifact identity: the
// manifest codec is unchanged, and every replica of a shard must
// serve the exact artifact the manifest fingerprints — a stale
// replica is detected per-reply by the same generation check,
// and deliberately does NOT fail over (a generation mismatch is a
// plan-level transition, owned by the manifest reload-retry-409
// discipline, not a replica fault).
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	fairindex "fairindex"
	"fairindex/internal/shard"
	"fairindex/internal/wire"
)

// DefaultTimeout bounds each per-shard backend call unless overridden
// with WithTimeout.
const DefaultTimeout = 5 * time.Second

// maxReplyBytes caps how much of one backend response body the router
// reads; a larger reply is a deterministic shard failure, never a
// silent truncation. Override with WithMaxReplyBytes.
const maxReplyBytes = 64 << 20

// Backend names one shard's replica set: the manifest shard it serves
// and the base URLs (scheme://host:port) of the interchangeable
// servers answering for it, in preference order. Every replica must
// serve the exact artifact the manifest fingerprints for the shard.
type Backend struct {
	Name string
	URLs []string
}

// ManifestSource re-reads the shard manifest, e.g. from its file; the
// router calls it to refresh its plan when backend generations stop
// matching (a hot reload in progress).
type ManifestSource func() (*shard.Manifest, error)

// Router is the scatter-gather handler. Create one with New, then use
// it as an http.Handler. All methods are safe for concurrent use.
type Router struct {
	client   *http.Client
	timeout  time.Duration
	maxReply int64
	breaker  breakerConfig
	mux      *http.ServeMux
	source   ManifestSource
	backends map[string][]string // shard name → replica URLs

	// health and rotation are keyed by replica URL / shard name and
	// fixed at construction: manifest reloads swap the plan, never the
	// deployment, so breaker state survives a generation handoff.
	health   map[string]*replicaHealth
	rotation map[string]*atomic.Uint64

	// state is the current consistent snapshot: manifest plus resolved
	// per-shard replica sets. Handlers load it once per request; reload
	// swaps it atomically.
	state    atomic.Pointer[routerState]
	reloadMu sync.Mutex
	reloads  atomic.Int64
}

// routerState binds one manifest generation to the replica sets
// serving it, with the region geometry derived once.
type routerState struct {
	manifest *shard.Manifest
	layout   *fairindex.Layout
	replicas [][]string // manifest shard order; each entry in config order
}

// Option configures a Router.
type Option func(*Router)

// WithTimeout sets the per-shard backend call timeout.
func WithTimeout(d time.Duration) Option {
	return func(rt *Router) {
		if d > 0 {
			rt.timeout = d
		}
	}
}

// WithClient sets the HTTP client used for backend calls.
func WithClient(c *http.Client) Option {
	return func(rt *Router) {
		if c != nil {
			rt.client = c
		}
	}
}

// WithManifestSource enables manifest refresh on generation mismatch
// and POST /v1/reload.
func WithManifestSource(src ManifestSource) Option {
	return func(rt *Router) { rt.source = src }
}

// WithBreaker tunes the per-replica circuit breaker: threshold
// consecutive failures open a replica, base is the first backoff
// interval (doubled per re-trip, jittered), capped at maxBackoff.
func WithBreaker(threshold int, base, maxBackoff time.Duration) Option {
	return func(rt *Router) {
		rt.breaker = breakerConfig{threshold: threshold, base: base, maxBackoff: maxBackoff}
	}
}

// WithMaxReplyBytes caps how large one backend response body may be;
// a larger reply fails the replica call deterministically.
func WithMaxReplyBytes(n int64) Option {
	return func(rt *Router) {
		if n > 0 {
			rt.maxReply = n
		}
	}
}

// New wires a Router over a manifest and the backends serving its
// shards. Every manifest shard needs exactly one backend entry of the
// same name (which may carry several replica URLs); unknown or
// duplicate backend names are an error.
func New(m *shard.Manifest, backends []Backend, opts ...Option) (*Router, error) {
	rt := &Router{
		client:   &http.Client{},
		timeout:  DefaultTimeout,
		maxReply: maxReplyBytes,
		breaker:  breakerConfig{threshold: DefaultBreakerThreshold, base: DefaultBreakerBackoff, maxBackoff: DefaultBreakerMaxBackoff},
		backends: make(map[string][]string, len(backends)),
	}
	for _, opt := range opts {
		opt(rt)
	}
	if err := rt.breaker.validate(); err != nil {
		return nil, err
	}
	rt.health = make(map[string]*replicaHealth)
	rt.rotation = make(map[string]*atomic.Uint64, len(backends))
	for _, b := range backends {
		if _, dup := rt.backends[b.Name]; dup {
			return nil, fmt.Errorf("router: duplicate backend %q", b.Name)
		}
		if len(b.URLs) == 0 {
			return nil, fmt.Errorf("router: backend %q has no URL", b.Name)
		}
		seen := make(map[string]bool, len(b.URLs))
		trimmed := make([]string, len(b.URLs))
		for i, u := range b.URLs {
			u = strings.TrimRight(u, "/")
			if seen[u] {
				return nil, fmt.Errorf("router: backend %q lists replica %q twice", b.Name, u)
			}
			seen[u] = true
			trimmed[i] = u
			if rt.health[u] == nil {
				rt.health[u] = &replicaHealth{cfg: &rt.breaker}
			}
		}
		rt.backends[b.Name] = trimmed
		rt.rotation[b.Name] = new(atomic.Uint64)
	}
	st, err := newRouterState(m, rt.backends)
	if err != nil {
		return nil, err
	}
	rt.state.Store(st)

	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /v1/shards", rt.handleShards)
	rt.mux.HandleFunc("POST /v1/reload", rt.handleReload)
	rt.mux.HandleFunc("GET /v1/locate", rt.handleLocate)
	rt.mux.HandleFunc("POST /v1/locate", rt.handleLocate)
	rt.mux.HandleFunc("POST /v1/locate_batch", rt.handleLocateBatch)
	rt.mux.HandleFunc("POST /v1/range", rt.handleRange)
	rt.mux.HandleFunc("GET /v1/knn", rt.handleKNN)
	rt.mux.HandleFunc("POST /v1/knn", rt.handleKNN)
	rt.mux.HandleFunc("GET /v1/stats", rt.handleStats)
	rt.mux.HandleFunc("POST /v1/stats", rt.handleStats)
	rt.mux.HandleFunc("POST /v1/score", rt.handleUnsupported)
	rt.mux.HandleFunc("GET /v1/report/{task}", rt.handleUnsupported)
	return rt, nil
}

// newRouterState resolves a manifest against the configured backends.
func newRouterState(m *shard.Manifest, backends map[string][]string) (*routerState, error) {
	layout, err := fairindex.NewLayout(m.Grid, m.Box, m.CellRegion)
	if err != nil {
		return nil, fmt.Errorf("router: manifest geometry: %w", err)
	}
	st := &routerState{manifest: m, layout: layout, replicas: make([][]string, len(m.Shards))}
	named := make(map[string]bool, len(m.Shards))
	for i, s := range m.Shards {
		urls, ok := backends[s.Name]
		if !ok {
			return nil, fmt.Errorf("router: no backend for shard %q", s.Name)
		}
		st.replicas[i] = urls
		named[s.Name] = true
	}
	for name := range backends {
		if !named[name] {
			return nil, fmt.Errorf("router: backend %q matches no manifest shard", name)
		}
	}
	return st, nil
}

// Manifest returns the router's current manifest snapshot.
func (rt *Router) Manifest() *shard.Manifest { return rt.state.Load().manifest }

// Reloads returns how many times the router refreshed its manifest.
func (rt *Router) Reloads() int64 { return rt.reloads.Load() }

// Reload refreshes the manifest from the configured source — the same
// path POST /v1/reload takes. It errors when no source is configured
// or the new manifest does not resolve against the known backends.
func (rt *Router) Reload() error {
	if rt.source == nil {
		return errors.New("router: no manifest source configured for reload")
	}
	_, err := rt.reloadState()
	return err
}

// reloadState refreshes the manifest from the configured source and
// swaps the state; concurrent reloads are serialized and the state is
// only replaced after the new manifest resolves against the backends.
func (rt *Router) reloadState() (*routerState, error) {
	rt.reloadMu.Lock()
	defer rt.reloadMu.Unlock()
	m, err := rt.source()
	if err != nil {
		return nil, fmt.Errorf("router: reloading manifest: %w", err)
	}
	st, err := newRouterState(m, rt.backends)
	if err != nil {
		return nil, err
	}
	rt.state.Store(st)
	rt.reloads.Add(1)
	return st, nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, wire.MaxBodyBytes)
	rt.mux.ServeHTTP(w, r)
}

// Router-only wire types; the query endpoints' request and response
// shapes come from internal/wire, the same package the shard servers
// encode with.

type healthzResponse struct {
	Status     string `json:"status"`
	Shards     int    `json:"shards"`
	Regions    int    `json:"regions"`
	Generation string `json:"generation"`
	Reloads    int64  `json:"reloads"`
}

type shardInfoJSON struct {
	Name        string `json:"name"`
	URL         string `json:"url"`
	Lo          int    `json:"lo"`
	Hi          int    `json:"hi"`
	Fingerprint string `json:"fingerprint"`
	// Status/Generation/Match summarize the shard: the first replica
	// whose probe answered ok (or the first replica when none did), so
	// single-replica deployments read exactly as before replica sets.
	Status     string `json:"status"`
	Generation string `json:"generation,omitempty"`
	Match      bool   `json:"match"`
	// Replicas details every replica's probe outcome and breaker state.
	Replicas []replicaInfoJSON `json:"replicas,omitempty"`
}

type replicaInfoJSON struct {
	URL        string `json:"url"`
	Status     string `json:"status"`
	Generation string `json:"generation,omitempty"`
	Match      bool   `json:"match"`
	// Breaker is the passive-health view: closed | open | half-open,
	// with the failure bookkeeping behind it.
	Breaker      string `json:"breaker"`
	ConsecFails  int    `json:"consecutive_failures,omitempty"`
	Attempts     int64  `json:"attempts"`
	Failures     int64  `json:"failures,omitempty"`
	LastError    string `json:"last_error,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

type shardsResponse struct {
	Generation string          `json:"generation"`
	Regions    int             `json:"regions"`
	Shards     []shardInfoJSON `json:"shards"`
}

type reloadResponse struct {
	Generation string `json:"generation"`
	Reloads    int64  `json:"reloads"`
}

// writeJSON writes v with the given status, logging a failed body
// write.
func writeJSON(w http.ResponseWriter, status int, v any) {
	if err := wire.WriteJSON(w, status, v); err != nil {
		log.Printf("router: writing response: %v", err)
	}
}

// writeError writes a JSON error body.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, wire.Error{Error: err.Error()})
}

// setGeneration stamps the manifest generation — the whole source
// index's fingerprint, so it matches what a whole-index server would
// send — on a response.
func setGeneration(w http.ResponseWriter, st *routerState) {
	wire.SetGeneration(w, st.manifest.Generation)
}

// Scatter machinery.

// shardCall is one backend request of a fan-out.
type shardCall struct {
	method string
	path   string
	body   []byte // nil for GET
}

// shardReply is one backend's answer: transport error, or status plus
// body plus the generation header.
type shardReply struct {
	status int
	body   []byte
	gen    string
	err    error
}

// httpError is a terminal handler outcome: status plus message,
// written by the handler that receives it.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// scatter fans calls out to their shards concurrently and collects
// every reply; each per-shard call runs the replica failover loop
// under its own time budget.
func (rt *Router) scatter(ctx context.Context, st *routerState, calls map[int]shardCall) map[int]shardReply {
	replies := make(map[int]shardReply, len(calls))
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for i, call := range calls {
		wg.Add(1)
		go func(i int, call shardCall) {
			defer wg.Done()
			rep := rt.callShard(ctx, st, i, call)
			mu.Lock()
			replies[i] = rep
			mu.Unlock()
		}(i, call)
	}
	wg.Wait()
	return replies
}

// failsOver reports whether a replica attempt's outcome should move
// on to the next replica: transport errors and backend 5xx do; any
// reply below 500 — including 4xx (input-determined, identical on
// every replica) and generation mismatches (a plan-level transition
// owned by the manifest reload-retry discipline) — is terminal.
func failsOver(rep shardReply) bool {
	return rep.err != nil || rep.status >= 500
}

// callShard answers one shard's request by trying its replicas in
// rotation order under a single time budget of
// min(rt.timeout, remaining caller deadline) — attempts never outlive
// the caller, and each attempt's own timeout is its fair share of
// what remains (remaining / attempts left), so a black-holed replica
// cannot starve its siblings. The reply is the first terminal one, or
// the last failure once every replica refused — the only way a shard
// fails.
func (rt *Router) callShard(ctx context.Context, st *routerState, shardIdx int, call shardCall) shardReply {
	name := st.manifest.Shards[shardIdx].Name
	urls := st.replicas[shardIdx]
	order, probe := rt.replicaOrder(name, urls)

	total := rt.timeout
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < total {
			total = rem
		}
	}
	if total <= 0 {
		if probe >= 0 {
			rt.health[urls[order[probe]]].releaseProbe()
		}
		return shardReply{err: fmt.Errorf("router: no time budget left for shard %q: %w", name, context.DeadlineExceeded)}
	}
	deadline := time.Now().Add(total)

	var last shardReply
	for idx, i := range order {
		url := urls[i]
		h := rt.health[url]
		h.recordAttempt()
		actx, cancel := context.WithTimeout(ctx, time.Until(deadline)/time.Duration(len(order)-idx))
		rep := rt.doCall(actx, url, call)
		cancel()
		switch {
		case errors.Is(rep.err, context.Canceled):
			// A vanished client says nothing about the replica.
		case failsOver(rep):
			h.recordFailure(time.Now(), rep.err)
		default:
			h.recordSuccess()
		}
		if idx == probe {
			h.releaseProbe()
		}
		if !failsOver(rep) {
			return rep
		}
		last = rep
	}
	if len(order) > 1 {
		last.err = fmt.Errorf("router: all %d replicas of shard %q failed, last: %w",
			len(order), name, replyError(last))
	}
	return last
}

// replyError normalizes a failed reply into one error for wrapping.
func replyError(rep shardReply) error {
	if rep.err != nil {
		return rep.err
	}
	return fmt.Errorf("backend status %d", rep.status)
}

// doCall performs one HTTP request against one replica. A response
// body exceeding the reply cap is an explicit failure, never a silent
// truncation.
func (rt *Router) doCall(ctx context.Context, url string, call shardCall) shardReply {
	var body io.Reader
	if call.body != nil {
		body = bytes.NewReader(call.body)
	}
	req, err := http.NewRequestWithContext(ctx, call.method, url+call.path, body)
	if err != nil {
		return shardReply{err: err}
	}
	if call.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return shardReply{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, rt.maxReply+1))
	if err != nil {
		return shardReply{err: err}
	}
	if int64(len(data)) > rt.maxReply {
		return shardReply{err: fmt.Errorf("router: reply exceeds %d-byte cap", rt.maxReply)}
	}
	return shardReply{status: resp.StatusCode, body: data, gen: resp.Header.Get(wire.GenerationHeader)}
}

// mismatched returns the shards whose reply's generation header does
// not name the fingerprint the manifest snapshot expects. Transport
// failures are not mismatches (the fault path owns them), and an
// error reply without the header is a registry-level failure, not a
// generation signal.
func mismatched(st *routerState, replies map[int]shardReply) []int {
	var bad []int
	for i, rep := range replies {
		if rep.err != nil {
			continue
		}
		if rep.gen == "" && rep.status != http.StatusOK {
			continue
		}
		if rep.gen != strconv.FormatUint(st.manifest.Shards[i].Fingerprint, 10) {
			bad = append(bad, i)
		}
	}
	sort.Ints(bad)
	return bad
}

// scatterConsistent runs one generation-consistent fan-out starting
// from snapshot st: build derives the calls from a manifest snapshot,
// the replies are checked against that snapshot's fingerprints, and on
// any mismatch the manifest is reloaded (when a source is configured)
// and the whole fan-out rebuilt and retried exactly once. A mismatch
// surviving the retry is a 409: the deployment is mid-transition and
// no consistent answer exists.
func (rt *Router) scatterConsistent(ctx context.Context, st *routerState, build func(*routerState) (map[int]shardCall, *httpError)) (*routerState, map[int]shardReply, *httpError) {
	for attempt := 0; ; attempt++ {
		calls, herr := build(st)
		if herr != nil {
			return nil, nil, herr
		}
		replies := rt.scatter(ctx, st, calls)
		bad := mismatched(st, replies)
		if len(bad) == 0 {
			return st, replies, nil
		}
		if attempt == 0 && rt.source != nil {
			next, err := rt.reloadState()
			if err == nil {
				st = next
				continue
			}
			log.Printf("router: manifest reload after generation mismatch failed: %v", err)
		}
		names := make([]string, len(bad))
		for j, i := range bad {
			names[j] = st.manifest.Shards[i].Name
		}
		return nil, nil, &httpError{http.StatusConflict, fmt.Sprintf(
			"router: generation mismatch on shard(s) %s: backends serve a different artifact generation than the manifest",
			strings.Join(names, ", "))}
	}
}

// relay forwards one backend reply verbatim — used for client errors
// (4xx), which are input-determined and identical across shards.
func (rt *Router) relay(w http.ResponseWriter, st *routerState, rep shardReply) {
	setGeneration(w, st)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(rep.status)
	w.Write(rep.body)
}

// firstClientError scans replies in shard order for a 4xx to relay.
func firstClientError(st *routerState, replies map[int]shardReply) (shardReply, bool) {
	for i := range st.manifest.Shards {
		rep, ok := replies[i]
		if !ok || rep.err != nil {
			continue
		}
		if rep.status >= 400 && rep.status < 500 {
			return rep, true
		}
	}
	return shardReply{}, false
}

// failedShards lists the shards (manifest order) whose reply failed at
// the transport layer or with a backend-side 5xx.
func failedShards(st *routerState, replies map[int]shardReply) []int {
	var down []int
	for i := range st.manifest.Shards {
		rep, ok := replies[i]
		if !ok {
			continue // shard not part of this fan-out
		}
		if rep.err != nil || rep.status >= 500 {
			down = append(down, i)
		}
	}
	return down
}

// unreachableError describes dead shards for a hard-failure response.
func (rt *Router) unreachableError(st *routerState, replies map[int]shardReply, down []int) error {
	parts := make([]string, len(down))
	for j, i := range down {
		rep := replies[i]
		if rep.err != nil {
			parts[j] = fmt.Sprintf("%s: %v", st.manifest.Shards[i].Name, rep.err)
		} else {
			parts[j] = fmt.Sprintf("%s: backend status %d", st.manifest.Shards[i].Name, rep.status)
		}
	}
	return fmt.Errorf("router: shard backend(s) unavailable: %s", strings.Join(parts, "; "))
}

func (rt *Router) handleUnsupported(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotImplemented, errors.New(
		"router: score and report are whole-index operations; query a server holding the unsharded artifact"))
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := rt.state.Load()
	// The router's own health probe doubles as a staleness probe, the
	// same contract the backends' /healthz honors: the generation
	// header names the whole artifact the current plan serves, so a
	// fleet monitor can spot a router pinned to an old manifest without
	// issuing a data-path request.
	setGeneration(w, st)
	writeJSON(w, http.StatusOK, healthzResponse{
		Status:     "ok",
		Shards:     len(st.manifest.Shards),
		Regions:    st.manifest.NumRegions,
		Generation: strconv.FormatUint(st.manifest.Generation, 10),
		Reloads:    rt.reloads.Load(),
	})
}

// handleShards probes every replica's healthz directly (no failover —
// this surface reports faults instead of routing around them) and
// reports the plan side by side with what each backend actually
// serves, including each replica's breaker state.
func (rt *Router) handleShards(w http.ResponseWriter, r *http.Request) {
	st := rt.state.Load()
	resp := shardsResponse{
		Generation: strconv.FormatUint(st.manifest.Generation, 10),
		Regions:    st.manifest.NumRegions,
		Shards:     make([]shardInfoJSON, len(st.manifest.Shards)),
	}
	probe := shardCall{method: http.MethodGet, path: "/healthz"}
	var wg sync.WaitGroup
	for i, s := range st.manifest.Shards {
		wg.Add(1)
		go func(i int, s shard.Shard) {
			defer wg.Done()
			urls := st.replicas[i]
			info := shardInfoJSON{
				Name:        s.Name,
				Lo:          s.Lo,
				Hi:          s.Hi,
				Fingerprint: strconv.FormatUint(s.Fingerprint, 10),
				Replicas:    make([]replicaInfoJSON, len(urls)),
			}
			now := time.Now()
			var inner sync.WaitGroup
			for j, url := range urls {
				inner.Add(1)
				go func(j int, url string) {
					defer inner.Done()
					actx, acancel := context.WithTimeout(r.Context(), rt.timeout)
					defer acancel()
					rep := rt.doCall(actx, url, probe)
					hs := rt.health[url].snapshot(url, now)
					ri := replicaInfoJSON{
						URL:          url,
						Breaker:      hs.State,
						ConsecFails:  hs.ConsecFails,
						Attempts:     hs.Attempts,
						Failures:     hs.Failures,
						LastError:    hs.LastErr,
						RetryAfterMS: hs.RetryAfterMS,
					}
					switch {
					case rep.err != nil:
						ri.Status = fmt.Sprintf("unreachable: %v", rep.err)
					case rep.status != http.StatusOK:
						ri.Status = fmt.Sprintf("unhealthy: status %d", rep.status)
					default:
						ri.Status = "ok"
					}
					if rep.err == nil {
						ri.Generation = rep.gen
						ri.Match = rep.gen == info.Fingerprint
					}
					info.Replicas[j] = ri
				}(j, url)
			}
			inner.Wait()
			// Summarize: first ok replica speaks for the shard, else the
			// first replica's failure does.
			summary := info.Replicas[0]
			for _, ri := range info.Replicas {
				if ri.Status == "ok" {
					summary = ri
					break
				}
			}
			info.URL = summary.URL
			info.Status = summary.Status
			info.Generation = summary.Generation
			info.Match = summary.Match
			resp.Shards[i] = info
		}(i, s)
	}
	wg.Wait()
	setGeneration(w, st)
	writeJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleReload(w http.ResponseWriter, r *http.Request) {
	if rt.source == nil {
		writeError(w, http.StatusConflict, errors.New("router: no manifest source configured for reload"))
		return
	}
	st, err := rt.reloadState()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, reloadResponse{
		Generation: strconv.FormatUint(st.manifest.Generation, 10),
		Reloads:    rt.reloads.Load(),
	})
}

// Every query handler parses with the wire package, then stamps the
// current generation at the point a whole-index server resolves its
// index — after the request parses, before the query engine sees it —
// so even a locally-rejected request carries the header exactly when a
// server's would. The stats fan-out re-stamps with the snapshot that
// answered.
//
// Locate, locate_batch, range and kNN call the snapshot's Layout — the
// kernels the whole index answers with, refusals included — so no
// shard is asked and the answer is exact for the generation the
// snapshot stamps.

func (rt *Router) handleLocate(w http.ResponseWriter, r *http.Request) {
	req, err := wire.ParseLocate(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st := rt.state.Load()
	setGeneration(w, st)
	region, err := st.layout.Locate(req.Lat, req.Lon)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.LocateResponse{Region: region})
}

func (rt *Router) handleLocateBatch(w http.ResponseWriter, r *http.Request) {
	req, status, err := wire.ParseLocateBatch(r, wire.DefaultMaxBatch)
	if err != nil {
		writeError(w, status, err)
		return
	}
	st := rt.state.Load()
	setGeneration(w, st)
	regions := make([]int, len(req.Lats))
	err = st.layout.LocateBatchInto(regions, req.Lats, req.Lons)
	if err := wire.WriteLocateBatch(w, wire.NewLocateBatchResponse(regions, err)); err != nil {
		log.Printf("router: writing response: %v", err)
	}
}

func (rt *Router) handleRange(w http.ResponseWriter, r *http.Request) {
	var req wire.Rect
	if err := wire.DecodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st := rt.state.Load()
	setGeneration(w, st)
	overlaps, err := st.layout.RangeQuery(req.BBox())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.NewRangeResponse(overlaps))
}

func (rt *Router) handleKNN(w http.ResponseWriter, r *http.Request) {
	req, err := wire.ParseKNN(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.K > wire.DefaultMaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("k of %d exceeds limit %d", req.K, wire.DefaultMaxBatch))
		return
	}
	st := rt.state.Load()
	setGeneration(w, st)
	nearest := st.layout.NearestRegions
	if req.Squared {
		nearest = st.layout.NearestRegionsSquared
	}
	neighbors, err := nearest(req.Lat, req.Lon, req.K)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.NewKNNResponse(neighbors, req.Squared))
}

// handleStats resolves the window to a global region list, asks only
// the shards owning those regions for their raw per-region sufficient
// statistics (the backends' "sums" surface) and refolds them with
// fairindex.MergeWindowStats — the same fold the whole index runs, so
// complete responses are bit-identical. Stats degrade under shard
// failure instead of failing: live shards' regions are aggregated
// exactly and the response is marked partial.
//
// Refusals follow the whole index's order — rectangle, window size,
// metric names, task, region ids — so a request with several faults
// gets the same answer from both. The backends validate the task, so
// a region-list fault found here waits for a task probe first.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	req, err := wire.ParseStats(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st := rt.state.Load()
	setGeneration(w, st)
	regions, herr := statsWindow(st, req)
	if herr != nil {
		writeError(w, herr.status, herr)
		return
	}
	if req.Metrics != nil {
		// Resolving the names over an empty window is the merge's own
		// metric check, run before any shard is asked about the task.
		if _, err := fairindex.MergeWindowStatsMetrics(req.Task, nil, req.Metrics...); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}

	first := st
	var regionErr error
	st, replies, herr := rt.scatterConsistent(r.Context(), st, func(st *routerState) (map[int]shardCall, *httpError) {
		if st != first {
			// A reload moved the plan: resolve the window against the
			// new generation's geometry.
			var herr *httpError
			if regions, herr = statsWindow(st, req); herr != nil {
				return nil, herr
			}
		}
		calls := make(map[int]shardCall, len(st.manifest.Shards))
		// Region lists are validated here in the global id space (the
		// backends only see local ids), replicating the whole index's
		// exact refusals.
		var local [][]int
		local, regionErr = splitRegions(st.manifest, regions)
		for s, ids := range local {
			if len(ids) == 0 {
				continue
			}
			body, err := json.Marshal(wire.StatsRequest{Task: req.Task, Regions: ids, Sums: true})
			if err != nil {
				return nil, &httpError{http.StatusInternalServerError, err.Error()}
			}
			calls[s] = shardCall{method: http.MethodPost, path: "/v1/stats", body: body}
		}
		if len(calls) == 0 {
			// Empty or refused window: probe the first shard so task
			// validation (404 on an unknown task) still happens somewhere.
			// Written by hand because omitempty would drop the empty list
			// and turn the request into the regions-vs-rect 400.
			calls[0] = shardCall{method: http.MethodPost, path: "/v1/stats",
				body: []byte(fmt.Sprintf(`{"task":%d,"regions":[],"sums":true}`, req.Task))}
		}
		return calls, nil
	})
	if herr != nil {
		writeError(w, herr.status, herr)
		return
	}
	if rep, ok := firstClientError(st, replies); ok {
		rt.relay(w, st, rep)
		return
	}
	if regionErr != nil {
		setGeneration(w, st)
		writeError(w, http.StatusBadRequest, regionErr)
		return
	}
	down := failedShards(st, replies)
	if len(down) == len(replies) {
		writeError(w, http.StatusBadGateway, rt.unreachableError(st, replies, down))
		return
	}
	downSet := make(map[int]bool, len(down))
	var failedNames []string
	for _, i := range down {
		downSet[i] = true
		failedNames = append(failedNames, st.manifest.Shards[i].Name)
	}

	var gathered []fairindex.RegionStat
	for i := range st.manifest.Shards {
		rep, ok := replies[i]
		if !ok || downSet[i] {
			continue
		}
		var sub wire.StatsResponse
		if err := json.Unmarshal(rep.body, &sub); err != nil {
			writeError(w, http.StatusBadGateway, fmt.Errorf(
				"router: shard %q: malformed stats response: %v", st.manifest.Shards[i].Name, err))
			return
		}
		local := make([]fairindex.RegionStat, len(sub.Regions))
		for j, rs := range sub.Regions {
			if rs.SumScore == nil || rs.SumLabel == nil {
				writeError(w, http.StatusBadGateway, fmt.Errorf(
					"router: shard %q: backend response lacks raw sums (pre-sharding server version?)", st.manifest.Shards[i].Name))
				return
			}
			local[j] = fairindex.RegionStat{Region: rs.Region, Count: rs.Count, SumScore: *rs.SumScore, SumLabel: *rs.SumLabel}
		}
		gathered = append(gathered, st.manifest.TranslateStats(i, local)...)
	}
	var ws fairindex.WindowStats
	if req.Metrics != nil {
		ws, err = fairindex.MergeWindowStatsMetrics(req.Task, gathered, req.Metrics...)
	} else {
		ws, err = fairindex.MergeWindowStats(req.Task, gathered)
	}
	if err != nil {
		// Merge errors wrap fairindex.ErrQuery; task and
		// artifact-capability errors were already relayed from the
		// backends above.
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp := wire.NewStatsResponse(ws, req.Sums)
	resp.Partial = len(down) > 0
	resp.FailedShards = failedNames
	setGeneration(w, st)
	writeJSON(w, http.StatusOK, resp)
}

// statsWindow resolves a stats request's window against a snapshot,
// as the whole index does: a rect through the snapshot's RangeQuery,
// then the window-size cap, which a rect therefore cannot dodge.
func statsWindow(st *routerState, req wire.StatsRequest) ([]int, *httpError) {
	regions := req.Regions
	if req.Rect != nil {
		overlaps, err := st.layout.RangeQuery(req.Rect.BBox())
		if err != nil {
			return nil, &httpError{http.StatusBadRequest, err.Error()}
		}
		regions = make([]int, len(overlaps))
		for i, ov := range overlaps {
			regions[i] = ov.Region
		}
	}
	if len(regions) > wire.DefaultMaxBatch {
		return nil, &httpError{http.StatusRequestEntityTooLarge,
			fmt.Sprintf("window of %d regions exceeds limit %d", len(regions), wire.DefaultMaxBatch)}
	}
	return regions, nil
}

// splitRegions validates a global region list the way the whole
// index's GroupStats does and groups it into per-shard local id lists.
func splitRegions(m *shard.Manifest, regions []int) ([][]int, error) {
	local := make([][]int, len(m.Shards))
	seen := make(map[int]bool, len(regions))
	for _, region := range regions {
		if region < 0 || region >= m.NumRegions {
			return nil, fmt.Errorf("%w: region %d out of range [0,%d)", fairindex.ErrQuery, region, m.NumRegions)
		}
		if seen[region] {
			return nil, fmt.Errorf("%w: duplicate region %d", fairindex.ErrQuery, region)
		}
		seen[region] = true
		s, l := m.ToLocal(region)
		local[s] = append(local[s], l)
	}
	return local, nil
}
