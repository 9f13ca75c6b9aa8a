package router_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	fairindex "fairindex"
	"fairindex/internal/dataset"
	"fairindex/internal/geo"
	"fairindex/internal/router"
	"fairindex/internal/router/faultnet"
	"fairindex/internal/server"
	"fairindex/internal/shard"
	"fairindex/internal/wire"
)

// buildWhole builds one LA index for sharding tests.
func buildWhole(t *testing.T, opts ...fairindex.Option) *fairindex.Index {
	t.Helper()
	spec := dataset.LA()
	spec.NumRecords = 400
	ds, err := dataset.Generate(spec, geo.MustGrid(32, 32))
	if err != nil {
		t.Fatal(err)
	}
	if len(opts) == 0 {
		opts = []fairindex.Option{fairindex.WithHeight(4), fairindex.WithSeed(7)}
	}
	idx, err := fairindex.Build(ds, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// cluster is one sharded deployment under test: the whole index, its
// manifest, and one live httptest server per shard.
type cluster struct {
	whole    *fairindex.Index
	manifest *shard.Manifest
	servers  []*server.Server
	backends []*httptest.Server
}

// newCluster splits whole into n shards and starts one backend per
// shard.
func newCluster(t *testing.T, whole *fairindex.Index, n int) *cluster {
	t.Helper()
	m, shards, err := shard.Split(whole, n)
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{whole: whole, manifest: m}
	for _, sx := range shards {
		srv := server.New(sx)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		c.servers = append(c.servers, srv)
		c.backends = append(c.backends, ts)
	}
	return c
}

// swap moves shard i's backend to another artifact generation through
// its registry, the call rebuild promotions use.
func (c *cluster) swap(t *testing.T, i int, idx *fairindex.Index) {
	t.Helper()
	if _, err := c.servers[i].Registry().Swap(server.DefaultIndexName, idx); err != nil {
		t.Fatal(err)
	}
}

// backendList names the cluster's backends for router.New.
func (c *cluster) backendList() []router.Backend {
	out := make([]router.Backend, len(c.backends))
	for i, ts := range c.backends {
		out[i] = router.Backend{Name: c.manifest.Shards[i].Name, URLs: []string{ts.URL}}
	}
	return out
}

// newRouter starts the scatter-gather front end over the cluster.
func (c *cluster) newRouter(t *testing.T, opts ...router.Option) (*router.Router, *httptest.Server) {
	t.Helper()
	rt, err := router.New(c.manifest, c.backendList(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	return rt, ts
}

// doJSON performs one request and decodes the response body.
func doJSON(t *testing.T, method, url, body string, out any) (int, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode, resp.Header
}

// pointInShard finds a coordinate whose owning region lies in shard
// s's range, by scanning grid cell centers.
func pointInShard(t *testing.T, m *shard.Manifest, s int) (float64, float64) {
	t.Helper()
	latStep := (m.Box.MaxLat - m.Box.MinLat) / float64(m.Grid.U)
	lonStep := (m.Box.MaxLon - m.Box.MinLon) / float64(m.Grid.V)
	for row := 0; row < m.Grid.U; row++ {
		for col := 0; col < m.Grid.V; col++ {
			region := m.CellRegion[row*m.Grid.V+col]
			if m.ShardOfRegion(region) == s {
				return m.Box.MinLat + (float64(row)+0.5)*latStep,
					m.Box.MinLon + (float64(col)+0.5)*lonStep
			}
		}
	}
	t.Fatalf("no cell owned by shard %d", s)
	return 0, 0
}

// TestRouterAnswersMatchWholeServer is the smoke-level HTTP parity
// check (the exhaustive matrix lives in the root shard_parity_test.go):
// one cluster, every endpoint, byte-identical to a whole-index server.
func TestRouterAnswersMatchWholeServer(t *testing.T) {
	whole := buildWhole(t)
	c := newCluster(t, whole, 3)
	_, rts := c.newRouter(t)
	wts := httptest.NewServer(server.New(whole))
	defer wts.Close()

	task := whole.Tasks()[0]
	requests := []struct{ method, path, body string }{
		{"GET", "/v1/locate?lat=34.02&lon=-118.41", ""},
		{"POST", "/v1/locate", `{"lat":33.95,"lon":-118.2}`},
		{"POST", "/v1/locate_batch", `{"lats":[34.0,33.9,34.2],"lons":[-118.3,-118.5,-118.25]}`},
		{"POST", "/v1/range", `{"min_lat":33.8,"min_lon":-118.6,"max_lat":34.1,"max_lon":-118.2}`},
		{"GET", "/v1/knn?lat=34.05&lon=-118.45&k=7", ""},
		{"POST", "/v1/knn", `{"lat":34.05,"lon":-118.45,"k":4,"squared":true}`},
		{"POST", "/v1/stats", fmt.Sprintf(`{"task":%d,"regions":[0,1,2,3]}`, task)},
		{"POST", "/v1/stats", fmt.Sprintf(`{"task":%d,"rect":{"min_lat":33.8,"min_lon":-118.6,"max_lat":34.1,"max_lon":-118.2}}`, task)},
		{"POST", "/v1/stats", fmt.Sprintf(`{"task":%d,"regions":[0,1,2],"metrics":[],"sums":true}`, task)},
		// Error parity: non-finite point, bad region list, bad rect.
		{"POST", "/v1/locate", `{"lat":"NaN"}`},
		{"GET", "/v1/knn?lat=1&lon=2&k=0", ""},
		{"POST", "/v1/stats", fmt.Sprintf(`{"task":%d,"regions":[1,1]}`, task)},
		{"POST", "/v1/stats", fmt.Sprintf(`{"task":%d,"regions":[99999]}`, task)},
		{"POST", "/v1/range", `{"min_lat":2,"min_lon":0,"max_lat":1,"max_lon":1}`},
		{"POST", "/v1/stats", fmt.Sprintf(`{"task":%d,"regions":[0],"metrics":["nope"]}`, task)},
	}
	for _, rq := range requests {
		wantBody, wantStatus, _ := rawRequest(t, rq.method, wts.URL+rq.path, rq.body)
		gotBody, gotStatus, _ := rawRequest(t, rq.method, rts.URL+rq.path, rq.body)
		if gotStatus != wantStatus {
			t.Errorf("%s %s: status %d, whole server %d (router body %s)", rq.method, rq.path, gotStatus, wantStatus, gotBody)
			continue
		}
		if gotBody != wantBody {
			t.Errorf("%s %s:\nrouter %s\nwhole  %s", rq.method, rq.path, gotBody, wantBody)
		}
	}
}

// rawRequest returns a response body verbatim for byte comparison,
// with its status and generation header.
func rawRequest(t *testing.T, method, url, body string) (string, int, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data), resp.StatusCode, resp.Header.Get(wire.GenerationHeader)
}

// request is one wire request a test replays against router and whole
// server.
type request struct{ method, path, body string }

// requireWholeAnswers replays requests against the router and a
// whole-index server and requires identical status, body and
// generation header.
func requireWholeAnswers(t *testing.T, routerURL, wholeURL string, reqs []request) {
	t.Helper()
	for _, rq := range reqs {
		wantBody, wantStatus, wantGen := rawRequest(t, rq.method, wholeURL+rq.path, rq.body)
		gotBody, gotStatus, gotGen := rawRequest(t, rq.method, routerURL+rq.path, rq.body)
		if gotStatus != wantStatus || gotBody != wantBody || gotGen != wantGen {
			t.Errorf("%s %s: router %d %q gen %q, whole %d %q gen %q",
				rq.method, rq.path, gotStatus, gotBody, gotGen, wantStatus, wantBody, wantGen)
		}
	}
}

// deadShardGeometry is traffic a dead shard must not disturb: kNN and
// range, answered from the manifest, and a stats window on one live
// cell, which asks no dead shard and so is complete, not partial.
func deadShardGeometry(task int, liveLat, liveLon, deadLat, deadLon float64) []request {
	return []request{
		{"GET", fmt.Sprintf("/v1/knn?lat=%v&lon=%v&k=3", liveLat, liveLon), ""},
		{"POST", "/v1/knn", fmt.Sprintf(`{"lat":%v,"lon":%v,"k":3}`, deadLat, deadLon)},
		{"POST", "/v1/range", `{"min_lat":33.8,"min_lon":-118.6,"max_lat":34.1,"max_lon":-118.2}`},
		{"GET", fmt.Sprintf("/v1/stats?task=%d&rect=%v,%v,%v,%v", task, liveLat, liveLon, liveLat, liveLon), ""},
	}
}

// TestRouterUnsupportedEndpoints pins the 501 contract for whole-index
// operations.
func TestRouterUnsupportedEndpoints(t *testing.T) {
	c := newCluster(t, buildWhole(t), 2)
	_, rts := c.newRouter(t)
	for _, rq := range []struct{ method, path, body string }{
		{"POST", "/v1/score", `{"task":0,"lat":34,"lon":-118.4,"features":[]}`},
		{"GET", "/v1/report/0", ""},
	} {
		status, _ := doJSON(t, rq.method, rts.URL+rq.path, rq.body, nil)
		if status != http.StatusNotImplemented {
			t.Errorf("%s %s: status %d, want 501", rq.method, rq.path, status)
		}
	}
}

// TestRouterHealthzGeneration pins the staleness-probe contract on
// the router's own health endpoint: /healthz answers without touching
// any backend and carries the Fairindex-Generation header of the plan
// it currently serves, matching what the backends' /healthz reports.
func TestRouterHealthzGeneration(t *testing.T) {
	c := newCluster(t, buildWhole(t), 2)
	_, rts := c.newRouter(t)
	gen, err := c.whole.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	want := strconv.FormatUint(gen, 10)

	var health struct {
		Status     string `json:"status"`
		Shards     int    `json:"shards"`
		Generation string `json:"generation"`
	}
	status, hdr := doJSON(t, "GET", rts.URL+"/healthz", "", &health)
	if status != http.StatusOK || health.Status != "ok" || health.Shards != 2 {
		t.Fatalf("healthz: status %d body %+v", status, health)
	}
	if health.Generation != want {
		t.Errorf("healthz generation %q, want %s", health.Generation, want)
	}
	if got := hdr.Get(wire.GenerationHeader); got != want {
		t.Errorf("healthz %s = %q, want %s", wire.GenerationHeader, got, want)
	}

	// No data-path request needed: the probe answers with every
	// backend down.
	for _, ts := range c.backends {
		ts.Close()
	}
	status, hdr = doJSON(t, "GET", rts.URL+"/healthz", "", &health)
	if status != http.StatusOK || hdr.Get(wire.GenerationHeader) != want {
		t.Errorf("healthz with backends down: status %d gen %q", status, hdr.Get(wire.GenerationHeader))
	}
}

// TestRouterShardsEndpoint checks the health/generation surface.
func TestRouterShardsEndpoint(t *testing.T) {
	c := newCluster(t, buildWhole(t), 3)
	_, rts := c.newRouter(t)

	var resp struct {
		Generation string `json:"generation"`
		Regions    int    `json:"regions"`
		Shards     []struct {
			Name        string `json:"name"`
			URL         string `json:"url"`
			Lo          int    `json:"lo"`
			Hi          int    `json:"hi"`
			Fingerprint string `json:"fingerprint"`
			Status      string `json:"status"`
			Generation  string `json:"generation"`
			Match       bool   `json:"match"`
		} `json:"shards"`
	}
	status, _ := doJSON(t, "GET", rts.URL+"/v1/shards", "", &resp)
	if status != http.StatusOK {
		t.Fatalf("shards: status %d", status)
	}
	wantGen, err := c.whole.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Generation != strconv.FormatUint(wantGen, 10) {
		t.Errorf("generation %q, want %d", resp.Generation, wantGen)
	}
	if resp.Regions != c.whole.NumRegions() || len(resp.Shards) != 3 {
		t.Fatalf("regions=%d shards=%d", resp.Regions, len(resp.Shards))
	}
	for i, s := range resp.Shards {
		if s.Status != "ok" || !s.Match {
			t.Errorf("shard %d: status %q match %v", i, s.Status, s.Match)
		}
		if s.Generation != s.Fingerprint {
			t.Errorf("shard %d: generation %q vs fingerprint %q", i, s.Generation, s.Fingerprint)
		}
		if s.Lo != c.manifest.Shards[i].Lo || s.Hi != c.manifest.Shards[i].Hi {
			t.Errorf("shard %d: range [%d,%d), want [%d,%d)", i, s.Lo, s.Hi, c.manifest.Shards[i].Lo, c.manifest.Shards[i].Hi)
		}
	}

	// Kill one backend: its entry degrades, the others stay ok.
	c.backends[1].Close()
	status, _ = doJSON(t, "GET", rts.URL+"/v1/shards", "", &resp)
	if status != http.StatusOK {
		t.Fatalf("shards after kill: status %d", status)
	}
	if !strings.HasPrefix(resp.Shards[1].Status, "unreachable") {
		t.Errorf("killed shard status %q", resp.Shards[1].Status)
	}
	if resp.Shards[0].Status != "ok" || resp.Shards[2].Status != "ok" {
		t.Errorf("live shards degraded: %q %q", resp.Shards[0].Status, resp.Shards[2].Status)
	}
}

// TestRouterKillOneShard pins the fault contract: locate, range and
// kNN answer from the manifest whichever shard owns the point, and
// window stats over the dead shard's regions degrade to an exact
// partial aggregate over the live shards.
func TestRouterKillOneShard(t *testing.T) {
	whole := buildWhole(t)
	c := newCluster(t, whole, 3)
	_, rts := c.newRouter(t)
	wts := httptest.NewServer(server.New(whole))
	defer wts.Close()
	task := whole.Tasks()[0]

	deadLat, deadLon := pointInShard(t, c.manifest, 1)
	liveLat, liveLon := pointInShard(t, c.manifest, 0)
	c.backends[1].Close()

	// Locate on the dead shard's cells: answered from the manifest.
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
	// Locate owned by a live shard: unaffected.
	status, _ = doJSON(t, "GET", fmt.Sprintf("%s/v1/locate?lat=%v&lon=%v", rts.URL, liveLat, liveLon), "", &loc)
	if status != http.StatusOK {
		t.Fatalf("locate via live shard: status %d", status)
	}
	if want, _ := whole.Locate(liveLat, liveLon); loc.Region != want {
		t.Errorf("live locate region %d, want %d", loc.Region, want)
	}

	// Batch containing a dead-shard point: answered from the manifest.
	var batch struct {
		Regions []int `json:"regions"`
	}
	status, _ = doJSON(t, "POST", rts.URL+"/v1/locate_batch",
		fmt.Sprintf(`{"lats":[%v,%v],"lons":[%v,%v]}`, liveLat, deadLat, liveLon, deadLon), &batch)
	if status != http.StatusOK {
		t.Errorf("batch with a dead-shard point: status %d, want 200", status)
	}
	if want, _ := whole.LocateBatch([]float64{liveLat, deadLat}, []float64{liveLon, deadLon}); fmt.Sprint(batch.Regions) != fmt.Sprint(want) {
		t.Errorf("batch regions %v, want %v", batch.Regions, want)
	}

	requireWholeAnswers(t, rts.URL, wts.URL, deadShardGeometry(task, liveLat, liveLon, deadLat, deadLon))

	// Window stats: partial, naming the dead shard, with the live
	// regions' aggregates bit-identical to the whole index restricted
	// to those regions.
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
	if !got.Partial {
		t.Error("stats with dead shard not marked partial")
	}
	if len(got.FailedShards) != 1 || got.FailedShards[0] != dead.Name {
		t.Errorf("failed_shards = %v, want [%s]", got.FailedShards, dead.Name)
	}
	want, err := whole.GroupStats(task, liveRegions)
	if err != nil {
		t.Fatal(err)
	}
	requireStatsEqual(t, got, want)
}

// statsWire decodes a router stats response for comparison.
type statsWire struct {
	Task     int      `json:"task"`
	Count    int      `json:"count"`
	MeanConf *float64 `json:"mean_conf"`
	PosRate  *float64 `json:"pos_rate"`
	Miscal   *float64 `json:"miscal"`
	CalRatio *float64 `json:"cal_ratio"`
	ENCE     *float64 `json:"ence"`
	Regions  []struct {
		Region int `json:"region"`
		Count  int `json:"count"`
	} `json:"regions"`
	Partial      bool     `json:"partial"`
	FailedShards []string `json:"failed_shards"`
}

// requireStatsEqual compares a wire response against an in-process
// WindowStats, treating JSON null as NaN.
func requireStatsEqual(t *testing.T, got statsWire, want fairindex.WindowStats) {
	t.Helper()
	if got.Count != want.Count {
		t.Errorf("count %d, want %d", got.Count, want.Count)
	}
	cmp := func(name string, g *float64, w float64) {
		gv := math.NaN()
		if g != nil {
			gv = *g
		}
		if math.Float64bits(gv) != math.Float64bits(w) && !(math.IsNaN(gv) && math.IsNaN(w)) {
			t.Errorf("%s = %v, want %v", name, gv, w)
		}
	}
	cmp("mean_conf", got.MeanConf, want.MeanConf)
	cmp("pos_rate", got.PosRate, want.PosRate)
	cmp("miscal", got.Miscal, want.Miscal)
	cmp("cal_ratio", got.CalRatio, want.CalRatio)
	cmp("ence", got.ENCE, want.ENCE)
	if len(got.Regions) != len(want.Regions) {
		t.Fatalf("%d regions, want %d", len(got.Regions), len(want.Regions))
	}
	for i, rs := range want.Regions {
		if got.Regions[i].Region != rs.Region || got.Regions[i].Count != rs.Count {
			t.Errorf("region[%d] = (%d,%d), want (%d,%d)", i,
				got.Regions[i].Region, got.Regions[i].Count, rs.Region, rs.Count)
		}
	}
}

// TestRouterSlowShardTimeout pins per-shard timeout semantics with a
// stub backend that answers correctly but too late: stats degrade to
// partial, and a window only the slow shard owns has nothing left to
// answer it — 502.
func TestRouterSlowShardTimeout(t *testing.T) {
	whole := buildWhole(t)
	c := newCluster(t, whole, 2)
	task := whole.Tasks()[0]

	// Front shard 1's handler with a delaying fault proxy — correct
	// bytes, correct generation, 300ms late.
	slow := faultnet.New(c.servers[1])
	defer slow.Close()
	slow.Set(faultnet.Fault{Mode: faultnet.Slow, Delay: 300 * time.Millisecond})
	backends := c.backendList()
	backends[1].URLs = []string{slow.URL()}
	rt, err := router.New(c.manifest, backends, router.WithTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt)
	defer rts.Close()

	var got statsWire
	body, _ := json.Marshal(map[string]any{"task": task, "rect": map[string]float64{
		"min_lat": c.manifest.Box.MinLat, "min_lon": c.manifest.Box.MinLon,
		"max_lat": c.manifest.Box.MaxLat, "max_lon": c.manifest.Box.MaxLon,
	}})
	status, _ := doJSON(t, "POST", rts.URL+"/v1/stats", string(body), &got)
	if status != http.StatusOK {
		t.Fatalf("stats with slow shard: status %d", status)
	}
	if !got.Partial || len(got.FailedShards) != 1 || got.FailedShards[0] != c.manifest.Shards[1].Name {
		t.Errorf("partial=%v failed=%v", got.Partial, got.FailedShards)
	}
	liveRegions := make([]int, 0)
	for r := c.manifest.Shards[0].Lo; r < c.manifest.Shards[0].Hi; r++ {
		liveRegions = append(liveRegions, r)
	}
	want, err := whole.GroupStats(task, liveRegions)
	if err != nil {
		t.Fatal(err)
	}
	requireStatsEqual(t, got, want)

	body = []byte(fmt.Sprintf(`{"task":%d,"regions":[%d]}`, task, c.manifest.Shards[1].Lo))
	status, _ = doJSON(t, "POST", rts.URL+"/v1/stats", string(body), nil)
	if status != http.StatusBadGateway {
		t.Errorf("stats owned by the slow shard alone: status %d, want 502", status)
	}
}

// TestRouterGenerationMismatch pins the consistency discipline: a
// backend serving a different artifact generation than the manifest is
// rejected with 409 (no source to reload from), and never silently
// merged.
func TestRouterGenerationMismatch(t *testing.T) {
	whole := buildWhole(t)
	other := buildWhole(t, fairindex.WithHeight(3), fairindex.WithSeed(99))
	c := newCluster(t, whole, 2)
	_, rts := c.newRouter(t)
	task := whole.Tasks()[0]

	// Swap shard 1's backend to an artifact from a different build.
	_, otherShards, err := shard.Split(other, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.swap(t, 1, otherShards[1])

	box := c.manifest.Box
	for _, rq := range []request{
		{"POST", "/v1/stats", fmt.Sprintf(`{"task":%d,"regions":[%d]}`, task, c.manifest.Shards[1].Lo)},
		{"GET", fmt.Sprintf("/v1/stats?task=%d&rect=%v,%v,%v,%v", task, box.MinLat, box.MinLon, box.MaxLat, box.MaxLon), ""},
		{"POST", "/v1/stats", fmt.Sprintf(`{"task":%d,"rect":{"min_lat":33.7,"min_lon":-118.7,"max_lat":34.3,"max_lon":-118.1}}`, task)},
	} {
		status, _ := doJSON(t, rq.method, rts.URL+rq.path, rq.body, nil)
		if status != http.StatusConflict {
			t.Errorf("%s %s against mixed generations: status %d, want 409", rq.method, rq.path, status)
		}
	}
}

// TestRouterHotReloadRetry pins the recovery path: when the backends
// move to a new generation and the manifest source follows, a stats
// fan-out that observes the mismatch reloads the manifest and succeeds
// on its single retry — its rect resolved against the new geometry —
// and locates answer the new generation from then on.
func TestRouterHotReloadRetry(t *testing.T) {
	wholeA := buildWhole(t)
	wholeB := buildWhole(t, fairindex.WithHeight(5), fairindex.WithSeed(11))
	c := newCluster(t, wholeA, 2)

	mB, shardsB, err := shard.Split(wholeB, 2)
	if err != nil {
		t.Fatal(err)
	}
	var current atomic.Pointer[shard.Manifest]
	current.Store(c.manifest)
	rt, err := router.New(c.manifest, c.backendList(),
		router.WithManifestSource(func() (*shard.Manifest, error) { return current.Load(), nil }))
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt)
	defer rts.Close()

	// Move the deployment to generation B: manifest first, then the
	// backends (matching the operational order: publish the new plan,
	// then HUP the servers).
	current.Store(mB)
	for i := range c.servers {
		c.swap(t, i, shardsB[i])
	}

	wts := httptest.NewServer(server.New(wholeB))
	defer wts.Close()
	stats := fmt.Sprintf("/v1/stats?task=%d&rect=33.8,-118.6,34.1,-118.2&sums=true", wholeB.Tasks()[0])
	wantBody, wantStatus, _ := rawRequest(t, "GET", wts.URL+stats, "")
	body, status, gen := rawRequest(t, "GET", rts.URL+stats, "")
	if status != http.StatusOK || status != wantStatus || body != wantBody {
		t.Fatalf("stats after hot reload: status %d (whole B %d)\nrouter  %s\nwhole B %s", status, wantStatus, body, wantBody)
	}
	genB, err := wholeB.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if gen != strconv.FormatUint(genB, 10) {
		t.Errorf("response generation %q, want %d", gen, genB)
	}
	if rt.Reloads() == 0 {
		t.Error("router answered without reloading the manifest")
	}

	// The reload moved locates to generation B as well.
	var resp struct {
		Region int `json:"region"`
	}
	status, hdr := doJSON(t, "GET", rts.URL+"/v1/locate?lat=34.05&lon=-118.35", "", &resp)
	if status != http.StatusOK {
		t.Fatalf("locate after hot reload: status %d", status)
	}
	want, err := wholeB.Locate(34.05, -118.35)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Region != want {
		t.Errorf("region %d, want generation B's %d", resp.Region, want)
	}
	if got := hdr.Get("Fairindex-Generation"); got != strconv.FormatUint(genB, 10) {
		t.Errorf("locate generation %q, want %d", got, genB)
	}
}

// TestRouterConsistencyUnderConcurrentReload hammers the router from
// many goroutines with locates and stats fan-outs while the deployment
// flips generations, asserting every single response is internally
// consistent: a 200 carries one generation's header AND that
// generation's exact answer, transition windows yield only 409s (or
// 502 for requests caught mid-swap), never a mixed or wrong-generation
// body. Run with -race.
func TestRouterConsistencyUnderConcurrentReload(t *testing.T) {
	wholeA := buildWhole(t)
	wholeB := buildWhole(t, fairindex.WithHeight(5), fairindex.WithSeed(11))
	c := newCluster(t, wholeA, 3)
	mB, shardsB, err := shard.Split(wholeB, 3)
	if err != nil {
		t.Fatal(err)
	}
	var current atomic.Pointer[shard.Manifest]
	current.Store(c.manifest)
	rt, err := router.New(c.manifest, c.backendList(),
		router.WithManifestSource(func() (*shard.Manifest, error) { return current.Load(), nil }))
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt)
	defer rts.Close()

	const probeLat, probeLon = 34.07, -118.33
	genOf := func(ix *fairindex.Index) string {
		fp, err := ix.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return strconv.FormatUint(fp, 10)
	}
	locatePath := fmt.Sprintf("/v1/locate?lat=%v&lon=%v", probeLat, probeLon)
	box := c.manifest.Box
	statsPath := fmt.Sprintf("/v1/stats?task=%d&rect=%v,%v,%v,%v", wholeA.Tasks()[0], box.MinLat, box.MinLon, box.MaxLat, box.MaxLon)
	// want maps path → generation → the whole index's exact body.
	want := map[string]map[string]string{locatePath: {}, statsPath: {}}
	for _, ix := range []*fairindex.Index{wholeA, wholeB} {
		wts := httptest.NewServer(server.New(ix))
		for path := range want {
			body, status, _ := rawRequest(t, "GET", wts.URL+path, "")
			if status != http.StatusOK {
				t.Fatalf("whole %s: status %d", path, status)
			}
			want[path][genOf(ix)] = body
		}
		wts.Close()
	}

	var (
		wg   sync.WaitGroup
		stop atomic.Bool
		fail atomic.Pointer[string]
	)
	record := func(msg string) { fail.CompareAndSwap(nil, &msg) }
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				path := locatePath
				if i%2 == 1 {
					path = statsPath
				}
				resp, err := http.Get(rts.URL + path)
				if err != nil {
					record(fmt.Sprintf("transport error: %v", err))
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					gen := resp.Header.Get("Fairindex-Generation")
					wantBody, known := want[path][gen]
					if !known {
						record(fmt.Sprintf("%s: 200 with unknown generation %q", path, gen))
						return
					}
					if string(body) != wantBody {
						record(fmt.Sprintf("%s: generation %q answered %s, want %s", path, gen, body, wantBody))
						return
					}
				case http.StatusConflict, http.StatusBadGateway:
					// Mid-transition: consistent refusal is the contract.
				default:
					record(fmt.Sprintf("unexpected status %d: %s", resp.StatusCode, body))
					return
				}
			}
		}()
	}

	// Flip A→B→A a few times while the readers run.
	for flip := 0; flip < 6; flip++ {
		time.Sleep(20 * time.Millisecond)
		if flip%2 == 0 {
			current.Store(mB)
			for i := range c.servers {
				c.swap(t, i, shardsB[i])
			}
		} else {
			current.Store(c.manifest)
			// Re-extract generation A's shards: Swap handed B in, so
			// recreate A's artifacts from the retained whole index.
			_, shardsA, err := shard.Split(wholeA, 3)
			if err != nil {
				t.Fatal(err)
			}
			for i := range c.servers {
				c.swap(t, i, shardsA[i])
			}
		}
	}
	time.Sleep(30 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if msg := fail.Load(); msg != nil {
		t.Fatal(*msg)
	}
	if rt.Reloads() == 0 {
		t.Error("no fan-out observed a generation flip")
	}
}

// stubShard starts a backend that answers every request with status
// and body, stamped with shard s's manifest fingerprint as a backend
// of the right generation would be.
func stubShard(t *testing.T, m *shard.Manifest, s, status int, body string) string {
	t.Helper()
	gen := strconv.FormatUint(m.Shards[s].Fingerprint, 10)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(wire.GenerationHeader, gen)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		io.WriteString(w, body)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// requireErrorReply requires one exact router error reply: status,
// the JSON error body the shared replier writes, and the manifest
// generation header.
func requireErrorReply(t *testing.T, method, url, body string, wantStatus int, wantMsg string, wantGen uint64) {
	t.Helper()
	want, err := json.Marshal(wire.Error{Error: wantMsg})
	if err != nil {
		t.Fatal(err)
	}
	got, status, gen := rawRequest(t, method, url, body)
	if status != wantStatus || got != string(want)+"\n" || gen != strconv.FormatUint(wantGen, 10) {
		t.Errorf("%s %s: got %d %q gen %q, want %d %q gen %d", method, url, status, got, gen, wantStatus, want, wantGen)
	}
}

// wholeBoxStats is a stats request whose window spans every shard.
func wholeBoxStats(m *shard.Manifest, task int) string {
	return fmt.Sprintf(`{"task":%d,"rect":{"min_lat":%v,"min_lon":%v,"max_lat":%v,"max_lon":%v}}`,
		task, m.Box.MinLat, m.Box.MinLon, m.Box.MaxLat, m.Box.MaxLon)
}

// TestRouterStatsMalformedShardReply pins the 502 for a shard that
// answers 200 with a body that is not JSON.
func TestRouterStatsMalformedShardReply(t *testing.T) {
	whole := buildWhole(t)
	c := newCluster(t, whole, 2)
	backends := c.backendList()
	const garbage = "not json"
	backends[1].URLs = []string{stubShard(t, c.manifest, 1, http.StatusOK, garbage)}
	rt, err := router.New(c.manifest, backends)
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt)
	defer rts.Close()

	var sub wire.StatsResponse
	decodeErr := json.Unmarshal([]byte(garbage), &sub)
	requireErrorReply(t, "POST", rts.URL+"/v1/stats", wholeBoxStats(c.manifest, whole.Tasks()[0]),
		http.StatusBadGateway, fmt.Sprintf("router: shard %q: malformed stats response: %v", "s1", decodeErr), c.manifest.Generation)
}

// TestRouterStatsReplyWithoutSums pins the 502 for a shard whose
// stats reply lacks the raw per-region sums the merge refolds.
func TestRouterStatsReplyWithoutSums(t *testing.T) {
	whole := buildWhole(t)
	c := newCluster(t, whole, 2)
	backends := c.backendList()
	backends[0].URLs = []string{stubShard(t, c.manifest, 0, http.StatusOK,
		`{"task":0,"count":3,"mean_conf":0.5,"pos_rate":0.5,"miscal":0,"cal_ratio":1,"ence":0,"regions":[{"region":0,"count":3}]}`)}
	rt, err := router.New(c.manifest, backends)
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt)
	defer rts.Close()

	requireErrorReply(t, "POST", rts.URL+"/v1/stats", wholeBoxStats(c.manifest, whole.Tasks()[0]),
		http.StatusBadGateway, `router: shard "s0": backend response lacks raw sums (pre-sharding server version?)`, c.manifest.Generation)
}

// TestRouterStatsAllShardsDown pins the 502 when no asked shard
// answers: every shard is listed as "name: error" in manifest order,
// a replica set's error naming its exhausted replicas.
func TestRouterStatsAllShardsDown(t *testing.T) {
	whole := buildWhole(t)
	c := newCluster(t, whole, 2)
	backends := c.backendList()
	const down = `{"error":"down"}`
	backends[0].URLs = []string{
		stubShard(t, c.manifest, 0, http.StatusServiceUnavailable, down),
		stubShard(t, c.manifest, 0, http.StatusServiceUnavailable, down),
	}
	backends[1].URLs = []string{stubShard(t, c.manifest, 1, http.StatusInternalServerError, down)}
	rt, err := router.New(c.manifest, backends)
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt)
	defer rts.Close()

	requireErrorReply(t, "POST", rts.URL+"/v1/stats", wholeBoxStats(c.manifest, whole.Tasks()[0]),
		http.StatusBadGateway,
		`router: shard backend(s) unavailable: s0: router: all 2 replicas of shard "s0" failed, last: backend status 503; s1: backend status 500`,
		c.manifest.Generation)
}

// TestRouterGenerationMismatchAfterReload pins the 409 when a
// mismatch survives the one reload-and-retry: the reply names the
// mismatched shards in manifest order and the manifest is reloaded
// exactly once.
func TestRouterGenerationMismatchAfterReload(t *testing.T) {
	whole := buildWhole(t)
	other := buildWhole(t, fairindex.WithHeight(3), fairindex.WithSeed(99))
	c := newCluster(t, whole, 3)
	rt, rts := c.newRouter(t, router.WithManifestSource(func() (*shard.Manifest, error) { return c.manifest, nil }))

	_, otherShards, err := shard.Split(other, 3)
	if err != nil {
		t.Fatal(err)
	}
	c.swap(t, 2, otherShards[2])
	c.swap(t, 0, otherShards[0])

	before := rt.Reloads()
	requireErrorReply(t, "POST", rts.URL+"/v1/stats", wholeBoxStats(c.manifest, whole.Tasks()[0]),
		http.StatusConflict,
		"router: generation mismatch on shard(s) s0, s2: backends serve a different artifact generation than the manifest",
		c.manifest.Generation)
	if got := rt.Reloads() - before; got != 1 {
		t.Errorf("manifest reloaded %d times, want 1", got)
	}
}

// TestRouterStats5xxGenerationAnyReplicaCount pins that a shard's
// failed reply keeps its generation whatever the replica count: a
// shard whose every replica answers 500 stamped with another shard's
// fingerprint is a generation mismatch (409), not a failed shard,
// with one replica or two.
func TestRouterStats5xxGenerationAnyReplicaCount(t *testing.T) {
	whole := buildWhole(t)
	c := newCluster(t, whole, 2)
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			backends := c.backendList()
			backends[1].URLs = nil
			for range replicas {
				backends[1].URLs = append(backends[1].URLs,
					stubShard(t, c.manifest, 0, http.StatusInternalServerError, `{"error":"down"}`))
			}
			rt, err := router.New(c.manifest, backends)
			if err != nil {
				t.Fatal(err)
			}
			rts := httptest.NewServer(rt)
			defer rts.Close()
			requireErrorReply(t, "POST", rts.URL+"/v1/stats", wholeBoxStats(c.manifest, whole.Tasks()[0]),
				http.StatusConflict,
				"router: generation mismatch on shard(s) s1: backends serve a different artifact generation than the manifest",
				c.manifest.Generation)
		})
	}
}

// TestRouterStatsReloadStampsNewGeneration pins the generation a reply
// carries after a mismatch reloaded the manifest: backends that answer
// a foreign generation once and then fail make the retried fan-out a
// 502, stamped with the reloaded manifest's generation.
func TestRouterStatsReloadStampsNewGeneration(t *testing.T) {
	wholeA := buildWhole(t)
	wholeB := buildWhole(t, fairindex.WithHeight(5), fairindex.WithSeed(11))
	c := newCluster(t, wholeA, 2)
	mB, _, err := shard.Split(wholeB, 2)
	if err != nil {
		t.Fatal(err)
	}
	backends := c.backendList()
	for i := range backends {
		var calls atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if calls.Add(1) == 1 {
				w.Header().Set(wire.GenerationHeader, "1")
				io.WriteString(w, `{}`)
				return
			}
			w.WriteHeader(http.StatusInternalServerError)
			io.WriteString(w, `{"error":"down"}`)
		}))
		t.Cleanup(ts.Close)
		backends[i].URLs = []string{ts.URL}
	}
	rt, err := router.New(c.manifest, backends,
		router.WithManifestSource(func() (*shard.Manifest, error) { return mB, nil }))
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt)
	defer rts.Close()

	requireErrorReply(t, "POST", rts.URL+"/v1/stats", wholeBoxStats(mB, wholeB.Tasks()[0]),
		http.StatusBadGateway,
		"router: shard backend(s) unavailable: s0: backend status 500; s1: backend status 500",
		mB.Generation)
	if got := rt.Reloads(); got != 1 {
		t.Errorf("manifest reloaded %d times, want 1", got)
	}
}

// TestRouterRefusesUnvalidatedManifest pins that a manifest assembled
// by hand, never validated by shard.Decode or shard.Split, carries no
// Layout to answer from: router.New and a reload both refuse it, and
// a refused reload keeps the serving manifest.
func TestRouterRefusesUnvalidatedManifest(t *testing.T) {
	c := newCluster(t, buildWhole(t), 2)
	literal := &shard.Manifest{
		Generation: c.manifest.Generation,
		Grid:       c.manifest.Grid,
		Box:        c.manifest.Box,
		NumRegions: c.manifest.NumRegions,
		CellRegion: c.manifest.CellRegion,
		Shards:     c.manifest.Shards,
	}
	if _, err := router.New(literal, c.backendList()); err == nil || !strings.Contains(err.Error(), "shard.Decode") {
		t.Fatalf("router.New over an unvalidated manifest: err %v, want a refusal naming shard.Decode", err)
	}
	rt, err := router.New(c.manifest, c.backendList(),
		router.WithManifestSource(func() (*shard.Manifest, error) { return literal, nil }))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Reload(); err == nil || !strings.Contains(err.Error(), "shard.Split") {
		t.Fatalf("reload to an unvalidated manifest: err %v, want a refusal naming shard.Split", err)
	}
	if rt.Manifest() != c.manifest || rt.Reloads() != 0 {
		t.Errorf("a refused reload replaced the manifest (reloads %d)", rt.Reloads())
	}
}
