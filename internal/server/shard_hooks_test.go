package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"fairindex/internal/wire"
)

// TestGenerationHeader pins the router's consistency token: every data
// response and healthz carry the served artifact's fingerprint in
// Fairindex-Generation, stable across requests.
func TestGenerationHeader(t *testing.T) {
	idx, _ := buildIndex(t)
	fp, err := idx.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	want := strconv.FormatUint(fp, 10)
	ts := httptest.NewServer(New(idx))
	defer ts.Close()

	for _, url := range []string{
		ts.URL + "/healthz",
		ts.URL + "/v1/locate?lat=34.0&lon=-118.4",
		ts.URL + "/v1/knn?lat=34.0&lon=-118.4&k=3",
		ts.URL + "/v1/i/default/locate?lat=34.0&lon=-118.4",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get(wire.GenerationHeader); got != want {
			t.Errorf("GET %s: %s = %q, want %q", url, wire.GenerationHeader, got, want)
		}
	}

	// POST data routes carry it too.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/stats",
		strings.NewReader(`{"task":0,"regions":[0,1]}`))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(wire.GenerationHeader); got != want {
		t.Errorf("POST /v1/stats: %s = %q, want %q", wire.GenerationHeader, got, want)
	}

	// The size caps split on resolution: k is capped before the index
	// is resolved, so its 413 carries no generation; the stats window
	// is capped after its rect resolves through the index, so its 413
	// carries the generation.
	if idx.NumRegions() <= 8 {
		t.Fatalf("index has %d regions; the window-cap row needs more than 8", idx.NumRegions())
	}
	capped := httptest.NewServer(New(idx, WithMaxBatch(8)))
	defer capped.Close()
	box := idx.Box()
	for _, tc := range []struct{ path, gen string }{
		{fmt.Sprintf("/v1/stats?task=%d&rect=%v,%v,%v,%v", idx.Tasks()[0], box.MinLat, box.MinLon, box.MaxLat, box.MaxLon), want},
		{"/v1/knn?lat=34.0&lon=-118.4&k=9", ""},
	} {
		resp, err := http.Get(capped.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("GET %s: status %d, want 413", tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get(wire.GenerationHeader); got != tc.gen {
			t.Errorf("GET %s: %s = %q, want %q", tc.path, wire.GenerationHeader, got, tc.gen)
		}
	}
}

// TestGenerationHeaderAfterAppend: a server whose first request is an
// append still stamps the loaded artifact's fingerprint, the one a
// shard manifest records, so a router does not refuse its stats.
func TestGenerationHeaderAfterAppend(t *testing.T) {
	idx, ds := buildIndex(t)
	fp, err := idx.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serveFile(t, writeIndexFile(t, idx, t.TempDir(), "city.fidx")))
	defer ts.Close()

	r := ds.Records[0]
	body, err := json.Marshal(map[string]any{"records": []map[string]any{
		{"lat": r.Lat, "lon": r.Lon, "features": r.X, "labels": r.Labels},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/append", string(body), nil); code != http.StatusOK {
		t.Fatalf("append status %d", code)
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got, want := resp.Header.Get(wire.GenerationHeader), strconv.FormatUint(fp, 10); got != want {
		t.Errorf("healthz after append: %s = %q, want the loaded artifact's %q", wire.GenerationHeader, got, want)
	}
}

// TestStatsSums pins the opt-in raw-sums surface: with "sums" the
// per-region entries carry bit-exact SumScore/SumLabel, without it the
// legacy response bytes contain no sum fields at all.
func TestStatsSums(t *testing.T) {
	idx, _ := buildIndex(t)
	ts := httptest.NewServer(New(idx))
	defer ts.Close()
	client := ts.Client()

	task := idx.Tasks()[0]
	regions := []int{0, 1, 2}
	ws, err := idx.GroupStats(task, regions)
	if err != nil {
		t.Fatal(err)
	}

	var resp wire.StatsResponse
	body := fmt.Sprintf(`{"task":%d,"regions":[0,1,2],"sums":true}`, task)
	if code := postJSON(t, client, ts.URL+"/v1/stats", body, &resp); code != http.StatusOK {
		t.Fatalf("stats with sums: status %d", code)
	}
	if len(resp.Regions) != len(ws.Regions) {
		t.Fatalf("got %d regions, want %d", len(resp.Regions), len(ws.Regions))
	}
	for i, rs := range ws.Regions {
		got := resp.Regions[i]
		if got.SumScore == nil || got.SumLabel == nil {
			t.Fatalf("region %d: missing sums", rs.Region)
		}
		if math.Float64bits(*got.SumScore) != math.Float64bits(rs.SumScore) ||
			math.Float64bits(*got.SumLabel) != math.Float64bits(rs.SumLabel) {
			t.Errorf("region %d sums = (%v, %v), want (%v, %v)",
				rs.Region, *got.SumScore, *got.SumLabel, rs.SumScore, rs.SumLabel)
		}
	}

	// GET form: sums=true behaves identically.
	var getResp wire.StatsResponse
	url := fmt.Sprintf("%s/v1/stats?task=%d&regions=0,1,2&sums=true", ts.URL, task)
	if code := getJSON(t, client, url, &getResp); code != http.StatusOK {
		t.Fatalf("GET stats with sums: status %d", code)
	}
	if getResp.Regions[0].SumScore == nil {
		t.Error("GET sums=true: missing sums")
	}

	// Legacy request: the raw body must not mention sum fields.
	httpResp, err := client.Post(ts.URL+"/v1/stats", "application/json",
		strings.NewReader(fmt.Sprintf(`{"task":%d,"regions":[0,1,2]}`, task)))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<16)
	n, _ := httpResp.Body.Read(buf)
	httpResp.Body.Close()
	if s := string(buf[:n]); strings.Contains(s, "sum_score") || strings.Contains(s, "sum_label") {
		t.Errorf("legacy stats response leaks sum fields: %s", s)
	}

	// Malformed sums parameter is a 400.
	if code := getJSON(t, client, ts.URL+fmt.Sprintf("/v1/stats?task=%d&regions=0&sums=banana", task), nil); code != http.StatusBadRequest {
		t.Errorf("sums=banana: status %d, want 400", code)
	}
}

// TestKNNSquared pins the squared-distance client option: squared
// responses carry NearestRegionsSquared's exact values and echo the
// flag, default responses are unchanged Euclidean.
func TestKNNSquared(t *testing.T) {
	idx, _ := buildIndex(t)
	ts := httptest.NewServer(New(idx))
	defer ts.Close()
	client := ts.Client()

	const lat, lon, k = 34.05, -118.35, 5
	wantSq, err := idx.NearestRegionsSquared(lat, lon, k)
	if err != nil {
		t.Fatal(err)
	}
	wantEu, err := idx.NearestRegions(lat, lon, k)
	if err != nil {
		t.Fatal(err)
	}

	var sq wire.KNNResponse
	url := fmt.Sprintf("%s/v1/knn?lat=%v&lon=%v&k=%d&squared=true", ts.URL, lat, lon, k)
	if code := getJSON(t, client, url, &sq); code != http.StatusOK {
		t.Fatalf("squared knn: status %d", code)
	}
	if !sq.Squared {
		t.Error("squared response does not echo the flag")
	}
	if len(sq.Neighbors) != len(wantSq) {
		t.Fatalf("squared knn: %d neighbors, want %d", len(sq.Neighbors), len(wantSq))
	}
	for i, nd := range wantSq {
		got := sq.Neighbors[i]
		if got.Region != nd.Region || math.Float64bits(float64(got.Distance)) != math.Float64bits(nd.Distance) {
			t.Errorf("squared neighbor %d = (%d, %v), want (%d, %v)", i, got.Region, got.Distance, nd.Region, nd.Distance)
		}
	}

	// POST form with the flag.
	var post wire.KNNResponse
	body := fmt.Sprintf(`{"lat":%v,"lon":%v,"k":%d,"squared":true}`, lat, lon, k)
	if code := postJSON(t, client, ts.URL+"/v1/knn", body, &post); code != http.StatusOK {
		t.Fatalf("POST squared knn: status %d", code)
	}
	if !post.Squared || len(post.Neighbors) != len(wantSq) {
		t.Fatalf("POST squared knn: squared=%v, %d neighbors", post.Squared, len(post.Neighbors))
	}

	// Default stays Euclidean with no flag in the body.
	var eu wire.KNNResponse
	url = fmt.Sprintf("%s/v1/knn?lat=%v&lon=%v&k=%d", ts.URL, lat, lon, k)
	if code := getJSON(t, client, url, &eu); code != http.StatusOK {
		t.Fatalf("knn: status %d", code)
	}
	if eu.Squared {
		t.Error("default response carries squared flag")
	}
	for i, nd := range wantEu {
		got := eu.Neighbors[i]
		if got.Region != nd.Region || math.Float64bits(float64(got.Distance)) != math.Float64bits(nd.Distance) {
			t.Errorf("neighbor %d = (%d, %v), want (%d, %v)", i, got.Region, got.Distance, nd.Region, nd.Distance)
		}
	}

	// Malformed squared parameter is a 400.
	if code := getJSON(t, client, ts.URL+"/v1/knn?lat=1&lon=1&k=1&squared=banana", nil); code != http.StatusBadRequest {
		t.Errorf("squared=banana: status %d, want 400", code)
	}
}
