package fairindex_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	fairindex "fairindex"
	"fairindex/internal/router"
	"fairindex/internal/server"
	"fairindex/internal/shard"
	"fairindex/internal/wire"
)

// The HTTP sharded-vs-whole parity suite. The manifest geometry and
// the stats merge are pinned bit-identical in internal/shard; this
// suite locks the same property down at the wire: a router fronting real per-shard
// HTTP servers must produce byte-identical response bodies (and the
// same generation header) as a single server holding the unsharded
// artifact, for every query endpoint, across partition methods and
// shard counts.

func parityConfigs() map[string][]fairindex.Option {
	return map[string][]fairindex.Option{
		"fair-h4": {fairindex.WithHeight(4), fairindex.WithSeed(1)},
		"fair-h6": {fairindex.WithHeight(6), fairindex.WithSeed(1)},
		"quadtree": {fairindex.WithMethod(fairindex.MethodFairQuadtree),
			fairindex.WithHeight(4), fairindex.WithSeed(3)},
		"zipcode": {fairindex.WithMethod(fairindex.MethodZipCode),
			fairindex.WithZipSites(12), fairindex.WithSeed(2)},
	}
}

var parityShardCounts = []int{2, 4, 8}

func buildParityIndex(t testing.TB, opts ...fairindex.Option) *fairindex.Index {
	t.Helper()
	spec := fairindex.LA()
	spec.NumRecords = 400
	ds, err := fairindex.GenerateCity(spec, fairindex.MustGrid(32, 32))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := fairindex.Build(ds, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// parityRequest is one wire probe replayed against both deployments.
type parityRequest struct {
	method, path, body string
}

// parityBattery builds a deterministic request set spanning every
// endpoint, mixing in-box, out-of-box and invalid inputs.
func parityBattery(whole *fairindex.Index) []parityRequest {
	box := whole.Box()
	rng := rand.New(rand.NewSource(41))
	point := func() (float64, float64) {
		latSpan := box.MaxLat - box.MinLat
		lonSpan := box.MaxLon - box.MinLon
		return box.MinLat - 0.2*latSpan + rng.Float64()*1.4*latSpan,
			box.MinLon - 0.2*lonSpan + rng.Float64()*1.4*lonSpan
	}
	task := whole.Tasks()[0]
	var reqs []parityRequest

	for i := 0; i < 6; i++ {
		lat, lon := point()
		if i%2 == 0 {
			reqs = append(reqs, parityRequest{"GET", fmt.Sprintf("/v1/locate?lat=%v&lon=%v", lat, lon), ""})
		} else {
			reqs = append(reqs, parityRequest{"POST", "/v1/locate", fmt.Sprintf(`{"lat":%v,"lon":%v}`, lat, lon)})
		}
	}
	// Batches: clean, and with invalid points interleaved (error-text
	// parity down to capped per-point messages).
	var lats, lons []string
	for i := 0; i < 24; i++ {
		lat, lon := point()
		lats = append(lats, fmt.Sprintf("%v", lat))
		lons = append(lons, fmt.Sprintf("%v", lon))
	}
	reqs = append(reqs, parityRequest{"POST", "/v1/locate_batch",
		fmt.Sprintf(`{"lats":[%s],"lons":[%s]}`, strings.Join(lats, ","), strings.Join(lons, ","))})
	// JSON numbers cannot express NaN/Inf, so a non-finite batch point
	// dies at decode time on both deployments — the parity claim is
	// that the 400 bodies still match byte-for-byte. The query-string
	// form CAN carry NaN, reaching the non-finite validation text.
	infLats := append([]string{}, lats[:12]...)
	infLats[3] = "1e999"
	reqs = append(reqs, parityRequest{"POST", "/v1/locate_batch",
		fmt.Sprintf(`{"lats":[%s],"lons":[%s]}`, strings.Join(infLats, ","), strings.Join(lons[:12], ","))})
	reqs = append(reqs, parityRequest{"POST", "/v1/locate_batch", `{"lats":[1.0],"lons":[]}`})
	reqs = append(reqs, parityRequest{"POST", "/v1/locate_batch", `{"lats":[],"lons":[]}`})
	// Far enough outside the grid to overflow an int conversion: the
	// far-edge cells.
	reqs = append(reqs,
		parityRequest{"GET", "/v1/locate?lat=1e300&lon=-1e300", ""},
		parityRequest{"POST", "/v1/locate", `{"lat":-1e300,"lon":1e300}`},
		parityRequest{"POST", "/v1/locate_batch", fmt.Sprintf(`{"lats":[1e300,-1e300,1e300,%s],"lons":[-1e300,1e300,1e300,%s]}`, lats[0], lons[0])},
		parityRequest{"POST", "/v1/range", `{"min_lat":-1e300,"min_lon":-1e300,"max_lat":1e300,"max_lon":1e300}`},
	)
	reqs = append(reqs, parityRequest{"GET", "/v1/locate?lat=NaN&lon=1", ""})
	reqs = append(reqs, parityRequest{"GET", "/v1/locate?lat=1&lon=-Inf", ""})

	// Range queries: nested, overlapping, fully outside, degenerate.
	for i := 0; i < 4; i++ {
		lat0, lon0 := point()
		lat1, lon1 := point()
		if lat1 < lat0 {
			lat0, lat1 = lat1, lat0
		}
		if lon1 < lon0 {
			lon0, lon1 = lon1, lon0
		}
		reqs = append(reqs, parityRequest{"POST", "/v1/range",
			fmt.Sprintf(`{"min_lat":%v,"min_lon":%v,"max_lat":%v,"max_lon":%v}`, lat0, lon0, lat1, lon1)})
	}
	reqs = append(reqs, parityRequest{"POST", "/v1/range", `{"min_lat":3,"min_lon":0,"max_lat":1,"max_lon":1}`})

	// kNN: several k values in both metrics, plus invalid k.
	for _, k := range []int{1, 3, 7, whole.NumRegions(), whole.NumRegions() + 5} {
		lat, lon := point()
		reqs = append(reqs, parityRequest{"GET", fmt.Sprintf("/v1/knn?lat=%v&lon=%v&k=%d", lat, lon, k), ""})
		reqs = append(reqs, parityRequest{"POST", "/v1/knn",
			fmt.Sprintf(`{"lat":%v,"lon":%v,"k":%d,"squared":true}`, lat, lon, k)})
	}
	reqs = append(reqs, parityRequest{"GET", "/v1/knn?lat=1&lon=2&k=0", ""})
	// Far enough out that every squared distance overflows to +Inf.
	reqs = append(reqs, parityRequest{"GET", "/v1/knn?lat=1e200&lon=2&k=3", ""})
	// k at the request-size limit: the index clamps it to its region
	// count.
	lat, lon := point()
	reqs = append(reqs,
		parityRequest{"GET", fmt.Sprintf("/v1/knn?lat=%v&lon=%v&k=%d", lat, lon, wire.DefaultMaxBatch), ""},
		parityRequest{"POST", "/v1/knn", fmt.Sprintf(`{"lat":%v,"lon":%v,"k":%d}`, lat, lon, wire.DefaultMaxBatch)},
		parityRequest{"GET", fmt.Sprintf("/v1/knn?lat=%v&lon=%v&k=%d", lat, lon, wire.DefaultMaxBatch+1), ""},
	)

	// Window stats: explicit windows, rects, metric subsets, sums.
	n := whole.NumRegions()
	windows := [][]int{{0}, {0, 1, 2}, {n - 1}, {1, n / 2, n - 1}}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	windows = append(windows, all)
	for _, w := range windows {
		parts := make([]string, len(w))
		for i, r := range w {
			parts[i] = fmt.Sprintf("%d", r)
		}
		reqs = append(reqs, parityRequest{"POST", "/v1/stats",
			fmt.Sprintf(`{"task":%d,"regions":[%s]}`, task, strings.Join(parts, ","))})
	}
	reqs = append(reqs,
		parityRequest{"GET", fmt.Sprintf("/v1/stats?task=%d&regions=0,1,2&sums=true", task), ""},
		parityRequest{"POST", "/v1/stats", fmt.Sprintf(`{"task":%d,"regions":[0,1],"metrics":["miscal"]}`, task)},
		parityRequest{"POST", "/v1/stats", fmt.Sprintf(`{"task":%d,"regions":[0,1],"metrics":[]}`, task)},
		parityRequest{"POST", "/v1/stats", fmt.Sprintf(`{"task":%d,"rect":{"min_lat":%v,"min_lon":%v,"max_lat":%v,"max_lon":%v},"sums":true}`,
			task, box.MinLat, box.MinLon, box.MaxLat, box.MaxLon)},
		parityRequest{"POST", "/v1/stats", fmt.Sprintf(`{"task":%d,"rect":{"min_lat":0,"min_lon":0,"max_lat":1,"max_lon":1}}`, task)},
		// Error parity: dup region, out of range, both selectors, bad task.
		parityRequest{"POST", "/v1/stats", fmt.Sprintf(`{"task":%d,"regions":[1,1]}`, task)},
		parityRequest{"POST", "/v1/stats", fmt.Sprintf(`{"task":%d,"regions":[%d]}`, task, n)},
		parityRequest{"POST", "/v1/stats", fmt.Sprintf(`{"task":%d,"regions":[0],"rect":{"min_lat":0,"min_lon":0,"max_lat":1,"max_lon":1}}`, task)},
		parityRequest{"POST", "/v1/stats", `{"task":12345,"regions":[0]}`},
		parityRequest{"POST", "/v1/stats", fmt.Sprintf(`{"task":%d,"regions":[0],"metrics":["nope"]}`, task)},
		parityRequest{"POST", "/v1/stats", `{"regions":[]}`},
		parityRequest{"POST", "/v1/stats", `{"regions":[-1]}`},
		// Several faults at once: the refusal order must match too.
		parityRequest{"POST", "/v1/stats", `{"task":12345,"regions":[-1]}`},
		parityRequest{"POST", "/v1/stats", `{"task":12345,"regions":[0],"metrics":["nope"]}`},
		parityRequest{"GET", "/v1/stats?task=12345&rect=NaN,0,1,1&metrics=nope", ""},
		parityRequest{"GET", fmt.Sprintf("/v1/stats?task=%d&rect=2,0,1,1", task), ""},
	)

	// Malformed requests: both deployments parse with the same wire
	// layer, so every refusal must match down to the error text.
	reqs = append(reqs,
		parityRequest{"GET", "/v1/locate?lon=1", ""},
		parityRequest{"GET", "/v1/locate?lat=x&lon=1", ""},
		parityRequest{"GET", "/v1/knn?lat=1&lon=2", ""},
		parityRequest{"GET", "/v1/knn?lat=1&lon=2&k=x", ""},
		parityRequest{"GET", "/v1/knn?lat=1&lon=2&k=3&squared=maybe", ""},
		parityRequest{"GET", "/v1/knn?lat=NaN&lon=2&k=0", ""},
		parityRequest{"GET", "/v1/stats?task=x&regions=0", ""},
		parityRequest{"GET", fmt.Sprintf("/v1/stats?task=%d&regions=0,a", task), ""},
		parityRequest{"GET", fmt.Sprintf("/v1/stats?task=%d&rect=0,0,1", task), ""},
		parityRequest{"GET", fmt.Sprintf("/v1/stats?task=%d&rect=0,0,1,x", task), ""},
		parityRequest{"GET", fmt.Sprintf("/v1/stats?task=%d&regions=0&sums=maybe", task), ""},
		parityRequest{"GET", fmt.Sprintf("/v1/stats?task=%d&regions=0,1&metrics=", task), ""},
		parityRequest{"GET", fmt.Sprintf("/v1/stats?task=%d", task), ""},
	)
	for _, path := range parityPaths {
		reqs = append(reqs,
			parityRequest{"POST", path, `{"lat":1,"lon":2,"unknown":3}`},
			parityRequest{"POST", path, `{"lat":1,"lon":2}{}`},
			parityRequest{"POST", path, ""},
		)
	}
	return reqs
}

// replay issues one request and returns status, body and generation.
func replay(t *testing.T, base string, rq parityRequest) (int, string, string) {
	t.Helper()
	var rd io.Reader
	if rq.body != "" {
		rd = strings.NewReader(rq.body)
	}
	req, err := http.NewRequest(rq.method, base+rq.path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if rq.body != "" {
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
	return resp.StatusCode, string(data), resp.Header.Get(wire.GenerationHeader)
}

func TestShardedHTTPParity(t *testing.T) {
	for name, opts := range parityConfigs() {
		t.Run(name, func(t *testing.T) {
			whole := buildParityIndex(t, opts...)
			wts := httptest.NewServer(server.New(whole))
			defer wts.Close()
			battery := parityBattery(whole)

			for _, n := range parityShardCounts {
				t.Run(fmt.Sprintf("shards-%d", n), func(t *testing.T) {
					if n > whole.NumRegions() {
						t.Skipf("%d regions < %d shards", whole.NumRegions(), n)
					}
					m, shards, err := shard.Split(whole, n)
					if err != nil {
						t.Fatal(err)
					}
					backends := make([]router.Backend, len(shards))
					for i, sx := range shards {
						ts := httptest.NewServer(server.New(sx))
						defer ts.Close()
						backends[i] = router.Backend{Name: m.Shards[i].Name, URLs: []string{ts.URL}}
					}
					rt, err := router.New(m, backends)
					if err != nil {
						t.Fatal(err)
					}
					rts := httptest.NewServer(rt)
					defer rts.Close()

					for _, rq := range battery {
						wantStatus, wantBody, wantGen := replay(t, wts.URL, rq)
						gotStatus, gotBody, gotGen := replay(t, rts.URL, rq)
						if gotStatus != wantStatus {
							t.Errorf("%s %s body=%q: status %d, whole server %d\nrouter body: %s\nwhole body:  %s",
								rq.method, rq.path, rq.body, gotStatus, wantStatus, gotBody, wantBody)
							continue
						}
						if gotBody != wantBody {
							t.Errorf("%s %s body=%q: response bodies diverge\nrouter: %s\nwhole:  %s",
								rq.method, rq.path, rq.body, gotBody, wantBody)
						}
						if wantGen != "" && gotGen != wantGen {
							t.Errorf("%s %s: generation %q, whole server %q", rq.method, rq.path, gotGen, wantGen)
						}
					}
				})
			}
		})
	}
}

// parityPaths are the router's query endpoints.
var parityPaths = []string{"/v1/locate", "/v1/locate_batch", "/v1/range", "/v1/knn", "/v1/stats"}

// handlerTransport delivers each request to the in-process handler
// registered for its host, so a router can fan out without sockets.
type handlerTransport map[string]http.Handler

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	h, ok := t[r.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no handler for host %q", r.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(r.Method, r.URL.String(), r.Body).WithContext(r.Context()))
	return rec.Result(), nil
}

// serveRecorded runs one request through h in process; ok is false
// when the bytes do not form a valid request.
func serveRecorded(h http.Handler, method, target string, body []byte) (*httptest.ResponseRecorder, bool) {
	req, err := http.NewRequest(method, "http://fairindex"+target, bytes.NewReader(body))
	if err != nil {
		return nil, false
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec, true
}

// FuzzRouterParity extends the parity battery to generated requests:
// any method (GET or POST), query endpoint, query string and
// body must get a byte-identical status, body and generation header
// from a router over a 3-shard split and from the whole-index server.
// The battery is the seed corpus.
func FuzzRouterParity(f *testing.F) {
	whole := buildParityIndex(f, parityConfigs()["fair-h4"]...)
	m, shards, err := shard.Split(whole, 3)
	if err != nil {
		f.Fatal(err)
	}
	transport := handlerTransport{}
	backends := make([]router.Backend, len(shards))
	for i, sx := range shards {
		transport[m.Shards[i].Name] = server.New(sx)
		backends[i] = router.Backend{Name: m.Shards[i].Name, URLs: []string{"http://" + m.Shards[i].Name}}
	}
	rt, err := router.New(m, backends, router.WithClient(&http.Client{Transport: transport}))
	if err != nil {
		f.Fatal(err)
	}
	wholeSrv := server.New(whole)

	for _, rq := range parityBattery(whole) {
		path, query, _ := strings.Cut(rq.path, "?")
		f.Add(rq.method == http.MethodPost, uint8(slices.Index(parityPaths, path)), query, []byte(rq.body))
	}
	f.Fuzz(func(t *testing.T, post bool, endpoint uint8, query string, body []byte) {
		method := http.MethodGet
		if post {
			method = http.MethodPost
		}
		target := parityPaths[int(endpoint)%len(parityPaths)]
		if query != "" {
			target += "?" + query
		}
		want, ok := serveRecorded(wholeSrv, method, target, body)
		if !ok {
			return
		}
		got, _ := serveRecorded(rt, method, target, body)
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Fatalf("%s %s body=%q:\nrouter %d %s\nwhole  %d %s",
				method, target, body, got.Code, got.Body, want.Code, want.Body)
		}
		if g, w := got.Header().Get(wire.GenerationHeader), want.Header().Get(wire.GenerationHeader); g != w {
			t.Fatalf("%s %s body=%q: generation %q, whole server %q", method, target, body, g, w)
		}
	})
}
