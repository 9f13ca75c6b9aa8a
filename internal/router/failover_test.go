package router_test

// Replica-set fault suites: failover, circuit breaker, locate, range
// and kNN that need no replica, all-replicas-dead degradation, reply
// truncation and caller-deadline budgeting, all driven through the
// faultnet fault-injection proxy. Window stats are the only requests
// that reach a replica, so every fault is exercised through them. Run
// with -race (the shard-e2e CI job does).

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	fairindex "fairindex"
	"fairindex/internal/router"
	"fairindex/internal/router/faultnet"
	"fairindex/internal/server"
	"fairindex/internal/shard"
	"fairindex/internal/wire"
)

// replicaCluster is a sharded deployment where every shard is served
// by several faultnet-fronted replicas of the same artifact.
type replicaCluster struct {
	whole    *fairindex.Index
	manifest *shard.Manifest
	servers  []*server.Server
	proxies  [][]*faultnet.Proxy // [shard][replica]
}

// newReplicaCluster splits whole into nShards and fronts each shard's
// server with nReplicas independent fault proxies.
func newReplicaCluster(t *testing.T, whole *fairindex.Index, nShards, nReplicas int) *replicaCluster {
	t.Helper()
	m, shards, err := shard.Split(whole, nShards)
	if err != nil {
		t.Fatal(err)
	}
	c := &replicaCluster{whole: whole, manifest: m}
	for _, sx := range shards {
		srv := server.New(sx)
		c.servers = append(c.servers, srv)
		replicas := make([]*faultnet.Proxy, nReplicas)
		for r := range replicas {
			p := faultnet.New(srv)
			t.Cleanup(p.Close)
			replicas[r] = p
		}
		c.proxies = append(c.proxies, replicas)
	}
	return c
}

// backendList names every shard's replica set for router.New.
func (c *replicaCluster) backendList() []router.Backend {
	out := make([]router.Backend, len(c.proxies))
	for i, replicas := range c.proxies {
		urls := make([]string, len(replicas))
		for j, p := range replicas {
			urls[j] = p.URL()
		}
		out[i] = router.Backend{Name: c.manifest.Shards[i].Name, URLs: urls}
	}
	return out
}

func (c *replicaCluster) newRouter(t *testing.T, opts ...router.Option) (*router.Router, *httptest.Server) {
	t.Helper()
	rt, err := router.New(c.manifest, c.backendList(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	return rt, ts
}

// TestRouterFailoverKilledReplica pins the headline replica contract:
// with one replica of EVERY shard dead, every endpoint keeps
// answering with bytes identical to a whole-index server, and the
// dead replicas' breakers open. The whole-box stats rows reach every
// shard each round.
func TestRouterFailoverKilledReplica(t *testing.T) {
	whole := buildWhole(t)
	c := newReplicaCluster(t, whole, 3, 2)
	rt, rts := c.newRouter(t, router.WithBreaker(2, 50*time.Millisecond, 500*time.Millisecond))
	wts := httptest.NewServer(server.New(whole))
	defer wts.Close()

	for i := range c.proxies {
		c.proxies[i][0].Set(faultnet.Fault{Mode: faultnet.Kill})
	}

	task := whole.Tasks()[0]
	box := c.manifest.Box
	requests := []struct{ method, path, body string }{
		{"GET", "/v1/locate?lat=34.02&lon=-118.41", ""},
		{"POST", "/v1/locate_batch", `{"lats":[34.0,33.9,34.2],"lons":[-118.3,-118.5,-118.25]}`},
		{"POST", "/v1/range", `{"min_lat":33.8,"min_lon":-118.6,"max_lat":34.1,"max_lon":-118.2}`},
		{"GET", "/v1/knn?lat=34.05&lon=-118.45&k=5", ""},
		{"POST", "/v1/stats", fmt.Sprintf(`{"task":%d,"rect":{"min_lat":33.8,"min_lon":-118.6,"max_lat":34.1,"max_lon":-118.2}}`, task)},
		{"GET", fmt.Sprintf("/v1/stats?task=%d&rect=%v,%v,%v,%v&sums=true", task, box.MinLat, box.MinLon, box.MaxLat, box.MaxLon), ""},
		{"POST", "/v1/stats", fmt.Sprintf(`{"task":%d,"rect":{"min_lat":%v,"min_lon":%v,"max_lat":%v,"max_lon":%v},"metrics":[]}`,
			task, box.MinLat, box.MinLon, box.MaxLat, box.MaxLon)},
	}
	// Several rounds so the rotation lands every request shape on the
	// dead replica at least once.
	for round := 0; round < 4; round++ {
		for _, rq := range requests {
			wantBody, wantStatus, _ := rawRequest(t, rq.method, wts.URL+rq.path, rq.body)
			gotBody, gotStatus, _ := rawRequest(t, rq.method, rts.URL+rq.path, rq.body)
			if gotStatus != wantStatus || gotBody != wantBody {
				t.Fatalf("round %d %s %s: status %d (want %d)\nrouter %s\nwhole  %s",
					round, rq.method, rq.path, gotStatus, wantStatus, gotBody, wantBody)
			}
		}
	}
	// A partial=false stats answer proves no shard was counted failed.
	var got statsWire
	body, _ := json.Marshal(map[string]any{"task": task, "rect": map[string]float64{
		"min_lat": c.manifest.Box.MinLat, "min_lon": c.manifest.Box.MinLon,
		"max_lat": c.manifest.Box.MaxLat, "max_lon": c.manifest.Box.MaxLon,
	}})
	status, _ := doJSON(t, "POST", rts.URL+"/v1/stats", string(body), &got)
	if status != http.StatusOK || got.Partial {
		t.Fatalf("stats with one replica dead per shard: status %d partial %v", status, got.Partial)
	}

	// The dead replicas' breakers opened; the live ones stayed closed.
	for i := range c.proxies {
		hs := rt.ShardHealth(c.manifest.Shards[i].Name)
		if len(hs) != 2 {
			t.Fatalf("shard %d: %d replica health entries", i, len(hs))
		}
		if hs[0].State == "closed" {
			t.Errorf("shard %d: killed replica breaker still closed after %d failures", i, hs[0].Failures)
		}
		if hs[0].LastErr == "" {
			t.Errorf("shard %d: killed replica has no recorded error", i)
		}
		if hs[1].State != "closed" || hs[1].Failures != 0 {
			t.Errorf("shard %d: live replica state %q failures %d", i, hs[1].State, hs[1].Failures)
		}
	}
}

// TestRouterAllReplicasDead pins the degradation floor: with every
// replica of one shard dead, locates, range and kNN still answer from
// the manifest (on the dead shard's cells too), and window stats
// degrade partial — exactly the single-backend fault contract.
func TestRouterAllReplicasDead(t *testing.T) {
	whole := buildWhole(t)
	c := newReplicaCluster(t, whole, 3, 2)
	_, rts := c.newRouter(t, router.WithTimeout(2*time.Second))
	wts := httptest.NewServer(server.New(whole))
	defer wts.Close()
	task := whole.Tasks()[0]

	deadLat, deadLon := pointInShard(t, c.manifest, 1)
	liveLat, liveLon := pointInShard(t, c.manifest, 0)
	for _, p := range c.proxies[1] {
		p.Set(faultnet.Fault{Mode: faultnet.Kill})
	}

	var loc struct {
		Region int `json:"region"`
	}
	status, _ := doJSON(t, "GET", fmt.Sprintf("%s/v1/locate?lat=%v&lon=%v", rts.URL, deadLat, deadLon), "", &loc)
	if status != http.StatusOK {
		t.Errorf("locate on the dead shard's cells: status %d, want 200", status)
	}
	if want, _ := whole.Locate(deadLat, deadLon); loc.Region != want {
		t.Errorf("dead-shard locate region %d, want %d", loc.Region, want)
	}
	status, _ = doJSON(t, "GET", fmt.Sprintf("%s/v1/locate?lat=%v&lon=%v", rts.URL, liveLat, liveLon), "", &loc)
	if status != http.StatusOK {
		t.Fatalf("locate via live shard: status %d", status)
	}
	if want, _ := whole.Locate(liveLat, liveLon); loc.Region != want {
		t.Errorf("live locate region %d, want %d", loc.Region, want)
	}
	requireWholeAnswers(t, rts.URL, wts.URL, deadShardGeometry(task, liveLat, liveLon, deadLat, deadLon))

	allRegions := make([]int, whole.NumRegions())
	liveRegions := make([]int, 0, whole.NumRegions())
	dead := c.manifest.Shards[1]
	for r := range allRegions {
		allRegions[r] = r
		if r < dead.Lo || r >= dead.Hi {
			liveRegions = append(liveRegions, r)
		}
	}
	var got statsWire
	body, _ := json.Marshal(map[string]any{"task": task, "regions": allRegions})
	status, _ = doJSON(t, "POST", rts.URL+"/v1/stats", string(body), &got)
	if status != http.StatusOK {
		t.Fatalf("partial stats: status %d", status)
	}
	if !got.Partial || len(got.FailedShards) != 1 || got.FailedShards[0] != dead.Name {
		t.Fatalf("partial=%v failed=%v, want partial naming %s", got.Partial, got.FailedShards, dead.Name)
	}
	want, err := whole.GroupStats(task, liveRegions)
	if err != nil {
		t.Fatal(err)
	}
	requireStatsEqual(t, got, want)
}

// TestRouterBreakerRecovery walks the breaker state machine end to
// end: consecutive failures open it, the healthy sibling carries the
// load meanwhile, and once the backoff expires a half-open probe
// discovers the healed replica and closes the breaker.
func TestRouterBreakerRecovery(t *testing.T) {
	whole := buildWhole(t)
	c := newReplicaCluster(t, whole, 2, 2)
	rt, rts := c.newRouter(t, router.WithBreaker(2, 40*time.Millisecond, 80*time.Millisecond))
	name := c.manifest.Shards[0].Name
	body := shardZeroStats(c.manifest, whole.Tasks()[0])
	stats := func() int {
		t.Helper()
		status, _ := doJSON(t, "POST", rts.URL+"/v1/stats", body, nil)
		return status
	}

	c.proxies[0][0].Set(faultnet.Fault{Mode: faultnet.Kill})
	for i := 0; i < 6; i++ {
		if status := stats(); status != http.StatusOK {
			t.Fatalf("stats %d with one dead replica: status %d", i, status)
		}
	}
	hs := rt.ShardHealth(name)
	if hs[0].State == "closed" {
		t.Fatalf("replica 0 breaker closed after kills (failures %d)", hs[0].Failures)
	}
	if hs[0].ConsecFails < 2 || hs[0].LastErr == "" {
		t.Errorf("replica 0 bookkeeping: %+v", hs[0])
	}

	// The surface reports the same story.
	var sr struct {
		Shards []struct {
			Status   string `json:"status"`
			Replicas []struct {
				Breaker   string `json:"breaker"`
				Status    string `json:"status"`
				LastError string `json:"last_error"`
			} `json:"replicas"`
		} `json:"shards"`
	}
	if status, _ := doJSON(t, "GET", rts.URL+"/v1/shards", "", &sr); status != http.StatusOK {
		t.Fatalf("shards surface: %d", status)
	}
	if sr.Shards[0].Status != "ok" {
		t.Errorf("shard with a live replica reported %q, want ok", sr.Shards[0].Status)
	}
	if got := sr.Shards[0].Replicas[0]; got.Breaker == "closed" || got.LastError == "" || !strings.HasPrefix(got.Status, "unreachable") {
		t.Errorf("dead replica surface: %+v", got)
	}
	if got := sr.Shards[0].Replicas[1]; got.Breaker != "closed" || got.Status != "ok" {
		t.Errorf("live replica surface: %+v", got)
	}

	// Heal, let the backoff expire, and drive probes through.
	c.proxies[0][0].Set(faultnet.Fault{Mode: faultnet.Healthy})
	deadline := time.Now().Add(3 * time.Second)
	for {
		if status := stats(); status != http.StatusOK {
			t.Fatalf("stats during recovery: status %d", status)
		}
		if hs := rt.ShardHealth(name); hs[0].State == "closed" && hs[0].ConsecFails == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never closed after heal: %+v", rt.ShardHealth(name)[0])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// shardZeroStats is a POST /v1/stats body over one region shard 0
// owns, so the call reaches exactly one shard.
func shardZeroStats(m *shard.Manifest, task int) string {
	return fmt.Sprintf(`{"task":%d,"regions":[%d]}`, task, m.Shards[0].Lo)
}

// TestRouterLocateNeedsNoShard pins that locate, range and kNN are
// answered from the manifest: with every replica of every shard
// black-holed, every form — refusals and a stats window refused on its
// rect included — answers exactly what a whole-index server answers
// (status, body and generation) and no replica sees a request. Then a
// stats window inside one shard's regions reaches that shard's replicas
// and no other.
func TestRouterLocateNeedsNoShard(t *testing.T) {
	whole := buildWhole(t)
	c := newReplicaCluster(t, whole, 3, 2)
	// A shard hop would time out at 1s and answer 502.
	_, rts := c.newRouter(t, router.WithTimeout(time.Second))
	wts := httptest.NewServer(server.New(whole))
	defer wts.Close()
	for _, replicas := range c.proxies {
		for _, p := range replicas {
			p.Set(faultnet.Fault{Mode: faultnet.BlackHole})
		}
	}

	var lats, lons []string
	for s := range c.manifest.Shards {
		lat, lon := pointInShard(t, c.manifest, s)
		lats = append(lats, fmt.Sprint(lat))
		lons = append(lons, fmt.Sprint(lon))
	}
	// Off-box points clamp to border cells; JSON cannot carry NaN, so
	// the non-finite rows use the GET form.
	lats = append(lats, "1e300", "-1e300")
	lons = append(lons, "-1e300", "1e300")
	task := whole.Tasks()[0]
	rangeBody := `{"min_lat":33.8,"min_lon":-118.6,"max_lat":34.1,"max_lon":-118.2}`
	requests := []struct {
		method, path, body string
		status             int
	}{
		{"GET", fmt.Sprintf("/v1/locate?lat=%s&lon=%s", lats[0], lons[0]), "", http.StatusOK},
		{"GET", "/v1/locate?lat=NaN&lon=-118.3", "", http.StatusBadRequest},
		{"GET", "/v1/locate?lat=34&lon=-Inf", "", http.StatusBadRequest},
		{"POST", "/v1/locate", fmt.Sprintf(`{"lat":%s,"lon":%s}`, lats[1], lons[1]), http.StatusOK},
		{"POST", "/v1/locate", `{"lat":1e300,"lon":-1e300}`, http.StatusOK},
		{"POST", "/v1/locate_batch", fmt.Sprintf(`{"lats":[%s],"lons":[%s]}`, strings.Join(lats, ","), strings.Join(lons, ",")), http.StatusOK},
		{"POST", "/v1/range", rangeBody, http.StatusOK},
		{"GET", "/v1/range", rangeBody, http.StatusMethodNotAllowed},
		{"POST", "/v1/range", `{"min_lat":-1e300,"min_lon":-1e300,"max_lat":1e300,"max_lon":1e300}`, http.StatusOK},
		{"GET", "/v1/knn?lat=34.05&lon=-118.45&k=5", "", http.StatusOK},
		{"POST", "/v1/knn", `{"lat":34.05,"lon":-118.45,"k":5}`, http.StatusOK},
		{"GET", "/v1/knn?lat=34.05&lon=-118.45&k=5&squared=true", "", http.StatusOK},
		{"POST", "/v1/knn", `{"lat":34.05,"lon":-118.45,"k":5,"squared":true}`, http.StatusOK},
		{"GET", fmt.Sprintf("/v1/knn?lat=34.05&lon=-118.45&k=%d", wire.DefaultMaxBatch), "", http.StatusOK},
		// Far enough out that every squared distance overflows to +Inf.
		{"GET", "/v1/knn?lat=1e200&lon=2&k=3", "", http.StatusOK},
		{"GET", "/v1/knn?lat=NaN&lon=2&k=3", "", http.StatusBadRequest},
		{"GET", "/v1/knn?lat=34&lon=-118.4&k=0", "", http.StatusBadRequest},
		{"POST", "/v1/range", `{"min_lat":34.1,"min_lon":-118.6,"max_lat":33.8,"max_lon":-118.2}`, http.StatusBadRequest},
		{"GET", fmt.Sprintf("/v1/stats?task=%d&rect=NaN,0,1,1", task), "", http.StatusBadRequest},
		{"GET", fmt.Sprintf("/v1/stats?task=%d&rect=2,0,1,1", task), "", http.StatusBadRequest},
	}
	for _, rq := range requests {
		wantBody, wantStatus, wantGen := rawRequest(t, rq.method, wts.URL+rq.path, rq.body)
		gotBody, gotStatus, gotGen := rawRequest(t, rq.method, rts.URL+rq.path, rq.body)
		if gotStatus != wantStatus || gotBody != wantBody || gotGen != wantGen {
			t.Errorf("%s %s: router %d %q gen %q, whole %d %q gen %q",
				rq.method, rq.path, gotStatus, gotBody, gotGen, wantStatus, wantBody, wantGen)
		}
		if gotStatus != rq.status {
			t.Errorf("%s %s: status %d with every replica black-holed, want %d", rq.method, rq.path, gotStatus, rq.status)
		}
	}
	for i, replicas := range c.proxies {
		for j, p := range replicas {
			if n := p.Calls(); n != 0 {
				t.Errorf("shard %d replica %d saw %d requests, want 0", i, j, n)
			}
		}
	}

	// A window on one shard-0 cell calls shard 0 alone.
	for _, p := range c.proxies[0] {
		p.Set(faultnet.Fault{Mode: faultnet.Healthy})
	}
	path := fmt.Sprintf("/v1/stats?task=%d&rect=%s,%s,%s,%s&sums=true", task, lats[0], lons[0], lats[0], lons[0])
	wantBody, wantStatus, wantGen := rawRequest(t, "GET", wts.URL+path, "")
	gotBody, gotStatus, gotGen := rawRequest(t, "GET", rts.URL+path, "")
	if gotStatus != http.StatusOK || gotStatus != wantStatus || gotBody != wantBody || gotGen != wantGen {
		t.Errorf("one-shard rect stats: router %d %q gen %q, whole %d %q gen %q",
			gotStatus, gotBody, gotGen, wantStatus, wantBody, wantGen)
	}
	calls := int64(0)
	for _, p := range c.proxies[0] {
		calls += p.Calls()
	}
	if calls == 0 {
		t.Error("one-shard rect stats never reached shard 0")
	}
	for i, replicas := range c.proxies[1:] {
		for j, p := range replicas {
			if n := p.Calls(); n != 0 {
				t.Errorf("one-shard rect stats: shard %d replica %d saw %d requests, want 0", i+1, j, n)
			}
		}
	}
}

// TestRouterReplyTruncation pins the reply-size cap: a backend
// response exceeding the configured cap is a deterministic shard
// failure (502 naming the cap), never a silently truncated merge.
// Only stats read backend replies.
func TestRouterReplyTruncation(t *testing.T) {
	whole := buildWhole(t)
	c := newCluster(t, whole, 2)
	rt, err := router.New(c.manifest, c.backendList(), router.WithMaxReplyBytes(64))
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt)
	defer rts.Close()

	// Locate and range need no backend reply and still answer.
	lat, lon := pointInShard(t, c.manifest, 0)
	status, _ := doJSON(t, "GET", fmt.Sprintf("%s/v1/locate?lat=%v&lon=%v", rts.URL, lat, lon), "", nil)
	if status != http.StatusOK {
		t.Fatalf("locate under the cap: status %d", status)
	}
	rect := fmt.Sprintf(`{"min_lat":%v,"min_lon":%v,"max_lat":%v,"max_lon":%v}`,
		c.manifest.Box.MinLat, c.manifest.Box.MinLon, c.manifest.Box.MaxLat, c.manifest.Box.MaxLon)
	status, _ = doJSON(t, "POST", rts.URL+"/v1/range", rect, nil)
	if status != http.StatusOK {
		t.Fatalf("whole-box range under the cap: status %d", status)
	}
	// Whole-box stats replies cannot: deterministic 502, cap named.
	var resp struct {
		Error string `json:"error"`
	}
	body := fmt.Sprintf(`{"task":%d,"rect":%s}`, whole.Tasks()[0], rect)
	status, _ = doJSON(t, "POST", rts.URL+"/v1/stats", body, &resp)
	if status != http.StatusBadGateway {
		t.Fatalf("oversized stats replies: status %d, want 502", status)
	}
	if !strings.Contains(resp.Error, "64-byte cap") {
		t.Errorf("truncation error does not name the cap: %q", resp.Error)
	}
}

// TestRouterCallerDeadlineBudget pins the budget bugfix: failover
// attempts split min(router timeout, remaining caller deadline), so
// a request whose context expires in 300ms cannot spend the router's
// 10s timeout per replica.
func TestRouterCallerDeadlineBudget(t *testing.T) {
	whole := buildWhole(t)
	c := newReplicaCluster(t, whole, 2, 2)
	for _, replicas := range c.proxies {
		for _, p := range replicas {
			p.Set(faultnet.Fault{Mode: faultnet.BlackHole})
		}
	}
	rt, err := router.New(c.manifest, c.backendList(), router.WithTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	body := shardZeroStats(c.manifest, whole.Tasks()[0])
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest("POST", "/v1/stats", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	start := time.Now()
	rt.ServeHTTP(rec, req)
	elapsed := time.Since(start)
	if rec.Code != http.StatusBadGateway {
		t.Errorf("status %d, want 502", rec.Code)
	}
	if elapsed > 2*time.Second {
		t.Errorf("request outlived its caller: %v elapsed against a 300ms deadline", elapsed)
	}
}

// TestRouterStaleReplicaNoFailover pins the generation boundary: a
// replica serving a different artifact generation is a plan-level
// conflict (409 through the consistency machinery), never silently
// failed over — and never silently merged.
func TestRouterStaleReplicaNoFailover(t *testing.T) {
	whole := buildWhole(t)
	other := buildWhole(t, fairindex.WithHeight(3), fairindex.WithSeed(99))
	c := newCluster(t, whole, 2)
	_, otherShards, err := shard.Split(other, 2)
	if err != nil {
		t.Fatal(err)
	}
	stale := httptest.NewServer(server.New(otherShards[0]))
	defer stale.Close()

	backends := c.backendList()
	backends[0] = router.Backend{Name: c.manifest.Shards[0].Name,
		URLs: []string{stale.URL, c.backends[0].URL}}
	rt, err := router.New(c.manifest, backends)
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt)
	defer rts.Close()

	task, region := whole.Tasks()[0], c.manifest.Shards[0].Lo
	wantStats, err := whole.GroupStats(task, []int{region})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := whole.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	wantGen := strconv.FormatUint(gen, 10)
	var saw409, saw200 bool
	body := shardZeroStats(c.manifest, task)
	for i := 0; i < 8; i++ {
		var got statsWire
		status, hdr := doJSON(t, "POST", rts.URL+"/v1/stats", body, &got)
		switch status {
		case http.StatusOK:
			saw200 = true
			if hdr.Get(wire.GenerationHeader) != wantGen {
				t.Fatalf("200 with wrong generation %q", hdr.Get(wire.GenerationHeader))
			}
			requireStatsEqual(t, got, wantStats)
		case http.StatusConflict:
			saw409 = true // the stale replica was hit and refused, not papered over
		default:
			t.Fatalf("stats %d: status %d, want 200 or 409", i, status)
		}
	}
	if !saw409 {
		t.Error("stale replica never surfaced as a 409 — was it silently failed over?")
	}
	if !saw200 {
		t.Error("current replica never answered")
	}
}
