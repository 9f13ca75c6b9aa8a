// Package router is the scatter-gather front end of sharded serving:
// one HTTP process that presents the whole-index /v1 query API while
// the index itself lives split across N shard backends (each an
// ordinary internal/server process serving one shard artifact from
// fairindex.ExtractShard). Every query whose answer depends only on
// the partition — locate, locate_batch, range and kNN — is answered
// by the shared wire.Geometry handlers, the very handlers a server
// mounts, over the fairindex.Layout the shard.Manifest builds from the
// whole index's cell→region table when it is validated; no shard is
// asked. Window stats are the only fan-out: the window resolves to a
// region list with wire.WindowRegions over the same Layout, each
// shard owning some of those regions gets one POST
// /v1/stats asking for their raw per-region sufficient statistics,
// and fairindex.MergeWindowStats refolds the replies. Either way
// responses are bit-identical to a single server holding the whole
// index, a property pinned by the sharded-vs-whole HTTP parity suite
// and its fuzz target. Requests are parsed and replies encoded by
// internal/wire, the same wire layer the shard servers use.
//
// Consistency model: a manifest-answered query reads one manifest
// snapshot and stamps that snapshot's generation, so it is exact for
// the generation it names. A stats fan-out binds to one manifest
// snapshot and verifies each backend reply's Fairindex-Generation
// header against the snapshot's expected shard fingerprint. A mismatch
// — a backend serving a different artifact generation than the
// manifest describes, as happens mid hot-reload — rejects the whole
// fan-out; the stats handler reloads the manifest (when a source is
// configured), resolves the window again on the new snapshot's Layout
// and retries once, then answers 409. Responses are therefore never
// assembled from mixed generations.
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
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
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

// routerState binds one manifest generation, and the region geometry
// its validation built, to the replica sets serving it.
type routerState struct {
	manifest *shard.Manifest
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

	geo := &wire.Geometry{Resolve: rt.resolveLayout, MaxBatch: wire.DefaultMaxBatch, Logger: log.Default()}
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /v1/shards", rt.handleShards)
	rt.mux.HandleFunc("POST /v1/reload", rt.handleReload)
	rt.mux.HandleFunc("GET /v1/locate", geo.Locate)
	rt.mux.HandleFunc("POST /v1/locate", geo.Locate)
	rt.mux.HandleFunc("POST /v1/locate_batch", geo.LocateBatch)
	rt.mux.HandleFunc("POST /v1/range", geo.Range)
	rt.mux.HandleFunc("GET /v1/knn", geo.KNN)
	rt.mux.HandleFunc("POST /v1/knn", geo.KNN)
	rt.mux.HandleFunc("GET /v1/stats", rt.handleStats)
	rt.mux.HandleFunc("POST /v1/stats", rt.handleStats)
	rt.mux.HandleFunc("POST /v1/score", rt.handleUnsupported)
	rt.mux.HandleFunc("GET /v1/report/{task}", rt.handleUnsupported)
	return rt, nil
}

// newRouterState resolves a validated manifest (from shard.Decode or
// shard.Split, which build its Layout) against the configured backends.
func newRouterState(m *shard.Manifest, backends map[string][]string) (*routerState, error) {
	if m == nil || m.Layout() == nil {
		return nil, errors.New("router: manifest was not validated; load it with shard.Decode or build it with shard.Split")
	}
	st := &routerState{manifest: m, replicas: make([][]string, len(m.Shards))}
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

// reply writes the router's own JSON replies.
var reply = wire.Replier{Logger: log.Default(), Component: "router"}

// setGeneration stamps the manifest generation — the whole source
// index's fingerprint, so it matches what a whole-index server would
// send — on a response.
func setGeneration(w http.ResponseWriter, st *routerState) {
	wire.SetGeneration(w, st.manifest.Generation)
}

// Stats fan-out.

// shardReply is one shard's answer: transport error, or status plus
// body plus the generation header. A shard whose replicas all failed
// answers with the last replica's reply, status and generation kept,
// so a mismatch reads the same for one replica or several; tried
// counts the replicas asked and shard names them for failure.
type shardReply struct {
	status int
	body   []byte
	gen    string
	err    error
	shard  string
	tried  int
}

// failed reports whether the reply is a shard failure, and so whether
// a replica attempt moves on to the next replica: transport errors and
// backend 5xx are; any reply below 500 — including 4xx
// (input-determined, identical on every replica) and generation
// mismatches (a plan-level transition owned by the manifest
// reload-retry discipline) — is terminal.
func (rep shardReply) failed() bool {
	return rep.err != nil || rep.status >= 500
}

// failure describes a failed reply, naming the exhausted replica set
// when the shard has more than one replica.
func (rep shardReply) failure() error {
	err := rep.err
	if err == nil {
		err = fmt.Errorf("backend status %d", rep.status)
	}
	if rep.tried > 1 {
		return fmt.Errorf("router: all %d replicas of shard %q failed, last: %w", rep.tried, rep.shard, err)
	}
	return err
}

// scatter posts bodies[i] to shard i's /v1/stats, all concurrently,
// and returns the replies in shard order; a nil body leaves its shard
// unasked and its reply zero. Each per-shard call runs the replica
// failover loop under its own time budget.
func (rt *Router) scatter(ctx context.Context, st *routerState, bodies [][]byte) []shardReply {
	replies := make([]shardReply, len(bodies))
	var wg sync.WaitGroup
	for i, body := range bodies {
		if body == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			replies[i] = rt.callShard(ctx, st, i, body)
		}()
	}
	wg.Wait()
	return replies
}

// callShard posts one stats body to a shard by trying its replicas in
// rotation order under a single time budget of
// min(rt.timeout, remaining caller deadline) — attempts never outlive
// the caller, and each attempt's own timeout is its fair share of
// what remains (remaining / attempts left), so a black-holed replica
// cannot starve its siblings. The reply is the first terminal one, or
// the last failure once every replica refused — the only way a shard
// fails.
func (rt *Router) callShard(ctx context.Context, st *routerState, shardIdx int, body []byte) shardReply {
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
		rep := rt.doCall(actx, url, http.MethodPost, "/v1/stats", body)
		cancel()
		switch {
		case errors.Is(rep.err, context.Canceled):
			// A vanished client says nothing about the replica.
		case rep.failed():
			h.recordFailure(time.Now(), rep.err)
		default:
			h.recordSuccess()
		}
		if idx == probe {
			h.releaseProbe()
		}
		if !rep.failed() {
			return rep
		}
		last = rep
	}
	last.shard, last.tried = name, len(order)
	return last
}

// doCall performs one HTTP request against one replica; a non-nil
// body is sent as JSON. A response body exceeding the reply cap is an
// explicit failure, never a silent truncation.
func (rt *Router) doCall(ctx context.Context, url, method, path string, body []byte) shardReply {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url+path, rd)
	if err != nil {
		return shardReply{err: err}
	}
	if body != nil {
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

// mismatched names, in manifest order, the shards whose reply's
// generation header does not name the fingerprint the manifest
// snapshot expects. Transport failures are not mismatches (the fault
// path owns them), and an error reply without the header — an unasked
// shard's zero reply among them — is a registry-level failure, not a
// generation signal.
func mismatched(st *routerState, replies []shardReply) []string {
	var bad []string
	for i, rep := range replies {
		if rep.err != nil {
			continue
		}
		if rep.gen == "" && rep.status != http.StatusOK {
			continue
		}
		if rep.gen != strconv.FormatUint(st.manifest.Shards[i].Fingerprint, 10) {
			bad = append(bad, st.manifest.Shards[i].Name)
		}
	}
	return bad
}

// statsBodies groups a global region list into per-shard sums
// requests over shard-local ids, nil for a shard not asked. The list
// is checked here with the snapshot's Layout — the check the whole
// index's GroupStats runs — because the backends only see local ids;
// its refusal is returned for the caller to answer. An empty or
// refused window still asks the first shard, so the backends validate
// the task (404 on an unknown one) as the whole index would.
func statsBodies(st *routerState, task int, regions []int) ([][]byte, error) {
	local := make([][]int, len(st.manifest.Shards))
	_, err := st.manifest.Layout().RegionSet(regions)
	if err == nil {
		for _, region := range regions {
			s, l := st.manifest.ToLocal(region)
			local[s] = append(local[s], l)
		}
	}
	bodies := make([][]byte, len(local))
	asked := false
	for s, ids := range local {
		if len(ids) > 0 {
			bodies[s] = statsBody(task, ids)
			asked = true
		}
	}
	if !asked {
		bodies[0] = statsBody(task, nil)
	}
	return bodies, err
}

// statsBody encodes one shard's sums request, wire.StatsRequest's
// bytes, by hand: omitempty would drop an empty list and turn the
// request into the regions-vs-rect 400.
func statsBody(task int, ids []int) []byte {
	b := fmt.Appendf(nil, `{"task":%d,"regions":[`, task)
	for j, id := range ids {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return append(b, `],"sums":true}`...)
}

func (rt *Router) handleUnsupported(w http.ResponseWriter, r *http.Request) {
	reply.Error(w, http.StatusNotImplemented, errors.New(
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
	reply.JSON(w, http.StatusOK, healthzResponse{
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
	now := time.Now()
	var wg sync.WaitGroup
	for i, s := range st.manifest.Shards {
		info := &resp.Shards[i]
		*info = shardInfoJSON{
			Name:        s.Name,
			Lo:          s.Lo,
			Hi:          s.Hi,
			Fingerprint: strconv.FormatUint(s.Fingerprint, 10),
			Replicas:    make([]replicaInfoJSON, len(st.replicas[i])),
		}
		for j, url := range st.replicas[i] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				actx, cancel := context.WithTimeout(r.Context(), rt.timeout)
				defer cancel()
				rep := rt.doCall(actx, url, http.MethodGet, "/healthz", nil)
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
			}()
		}
	}
	wg.Wait()
	for i := range resp.Shards {
		info := &resp.Shards[i]
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
	}
	setGeneration(w, st)
	reply.JSON(w, http.StatusOK, resp)
}

func (rt *Router) handleReload(w http.ResponseWriter, r *http.Request) {
	if rt.source == nil {
		reply.Error(w, http.StatusConflict, errors.New("router: no manifest source configured for reload"))
		return
	}
	st, err := rt.reloadState()
	if err != nil {
		reply.Error(w, http.StatusInternalServerError, err)
		return
	}
	reply.JSON(w, http.StatusOK, reloadResponse{
		Generation: strconv.FormatUint(st.manifest.Generation, 10),
		Reloads:    rt.reloads.Load(),
	})
}

// resolveLayout binds a locate, locate_batch, range or kNN request
// (the shared wire.Geometry handlers) to the current manifest
// snapshot's Layout and stamps that snapshot's generation, at the
// point a whole-index server resolves its index. No shard is asked:
// the Layout runs the whole index's kernels, refusals included, so
// the answer is exact for the generation the snapshot stamps.
func (rt *Router) resolveLayout(w http.ResponseWriter, _ *http.Request) (*fairindex.Layout, bool) {
	st := rt.state.Load()
	setGeneration(w, st)
	return st.manifest.Layout(), true
}

// handleStats resolves the window to a global region list, asks only
// the shards owning those regions for their raw per-region sufficient
// statistics (the backends' "sums" surface) and refolds them with
// fairindex.MergeWindowStats — the same fold the whole index runs, so
// complete responses are bit-identical. Stats degrade under shard
// failure instead of failing: live shards' regions are aggregated
// exactly and the response is marked partial.
//
// The fan-out binds to one manifest snapshot. When a reply's
// generation does not match it, the manifest is reloaded (when a
// source is configured), the window resolved again on the new Layout
// and the fan-out retried once; a mismatch surviving that is a 409:
// the deployment is mid-transition and no consistent answer exists.
//
// Refusals follow the whole index's order — rectangle, window size,
// metric names, task, region ids — so a request with several faults
// gets the same answer from both. The backends validate the task, so
// a region-list fault found here waits for a task probe first.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	req, err := wire.ParseStats(r)
	if err != nil {
		reply.Error(w, http.StatusBadRequest, err)
		return
	}
	st := rt.state.Load()
	setGeneration(w, st)
	regions, status, err := wire.WindowRegions(st.manifest.Layout(), req.Regions, req.Rect, wire.DefaultMaxBatch)
	if err != nil {
		reply.Error(w, status, err)
		return
	}
	if req.Metrics != nil {
		// Resolving the names over an empty window is the merge's own
		// metric check, run before any shard is asked about the task.
		if _, err := fairindex.MergeWindowStatsMetrics(req.Task, nil, req.Metrics...); err != nil {
			reply.Error(w, http.StatusBadRequest, err)
			return
		}
	}

	var (
		bodies    [][]byte
		replies   []shardReply
		regionErr error
	)
	for attempt := 0; ; attempt++ {
		bodies, regionErr = statsBodies(st, req.Task, regions)
		replies = rt.scatter(r.Context(), st, bodies)
		bad := mismatched(st, replies)
		if len(bad) == 0 {
			break
		}
		if attempt == 0 && rt.source != nil {
			next, err := rt.reloadState()
			if err == nil {
				st = next
				setGeneration(w, st)
				if regions, status, err = wire.WindowRegions(st.manifest.Layout(), req.Regions, req.Rect, wire.DefaultMaxBatch); err != nil {
					reply.Error(w, status, err)
					return
				}
				continue
			}
			log.Printf("router: manifest reload after generation mismatch failed: %v", err)
		}
		reply.Error(w, http.StatusConflict, fmt.Errorf(
			"router: generation mismatch on shard(s) %s: backends serve a different artifact generation than the manifest",
			strings.Join(bad, ", ")))
		return
	}

	for _, rep := range replies {
		if rep.err == nil && rep.status >= 400 && rep.status < 500 {
			// Client errors are input-determined and identical on every
			// shard: relay the first one verbatim.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(rep.status)
			_, err := w.Write(rep.body)
			reply.Written(err)
			return
		}
	}
	if regionErr != nil {
		reply.Error(w, http.StatusBadRequest, regionErr)
		return
	}
	var (
		gathered    = make([]fairindex.RegionStat, 0, len(regions))
		failedNames []string
		failures    []string
		answered    int
	)
	for i, rep := range replies {
		if bodies[i] == nil {
			continue
		}
		name := st.manifest.Shards[i].Name
		if rep.failed() {
			failedNames = append(failedNames, name)
			failures = append(failures, fmt.Sprintf("%s: %v", name, rep.failure()))
			continue
		}
		answered++
		n := len(gathered)
		if gathered, err = wire.DecodeStatsSums(gathered, rep.body); err != nil {
			reply.Error(w, http.StatusBadGateway, fmt.Errorf("router: shard %q: %v", name, err))
			return
		}
		gathered = append(gathered[:n], st.manifest.TranslateStats(i, gathered[n:])...)
	}
	if answered == 0 {
		reply.Error(w, http.StatusBadGateway, fmt.Errorf(
			"router: shard backend(s) unavailable: %s", strings.Join(failures, "; ")))
		return
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
		reply.Error(w, http.StatusBadRequest, err)
		return
	}
	resp := wire.NewStatsResponse(ws, req.Sums)
	resp.Partial = len(failedNames) > 0
	resp.FailedShards = failedNames
	reply.Written(wire.WriteStats(w, resp))
}
