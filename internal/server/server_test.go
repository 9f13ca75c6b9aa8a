package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	fairindex "fairindex"
	"fairindex/internal/dataset"
	"fairindex/internal/geo"
	"fairindex/internal/registry"
	"fairindex/internal/wire"
)

// buildIndex builds a small LA index once per option set.
func buildIndex(t *testing.T, opts ...fairindex.Option) (*fairindex.Index, *dataset.Dataset) {
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
	return idx, ds
}

// writeIndexFile marshals idx into dir and returns the file path.
func writeIndexFile(t *testing.T, idx *fairindex.Index, dir, name string) string {
	t.Helper()
	blob, err := idx.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// serveFile builds the catalog `fairindexctl serve city.fidx` builds:
// registry.New + Add + NewMulti, with the sole entry (named after the
// file base) as the implicit default, which serve resolves at boot.
func serveFile(t *testing.T, path string) *Server {
	t.Helper()
	reg := registry.New()
	if err := reg.Add(strings.TrimSuffix(filepath.Base(path), registry.Ext), path); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Default(); err != nil {
		t.Fatal(err)
	}
	return NewMulti(reg)
}

// postJSON posts a JSON body and decodes the JSON response into out.
func postJSON(t *testing.T, client *http.Client, url string, body string, out any) int {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding response: %v", url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// getJSON fetches a URL and decodes the JSON response into out.
func getJSON(t *testing.T, client *http.Client, url string, out any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding response: %v", url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// TestServerEndToEnd is the full build→marshal→serve→query round
// trip: every endpoint answered over real HTTP against an index
// restored from its own bytes, with lookups bit-identical to the
// in-process Index.
func TestServerEndToEnd(t *testing.T) {
	idx, ds := buildIndex(t)
	srv := serveFile(t, writeIndexFile(t, idx, t.TempDir(), "city.fidx"))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	// healthz reflects the loaded artifact.
	var health healthzResponse
	if code := getJSON(t, client, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if health.Status != "ok" || health.Regions != idx.NumRegions() || health.Dataset != ds.Name {
		t.Errorf("healthz = %+v", health)
	}

	// GET and POST locate match the in-process index on every record.
	for i := 0; i < 40; i++ {
		rec := ds.Records[i]
		want, err := idx.Locate(rec.Lat, rec.Lon)
		if err != nil {
			t.Fatal(err)
		}
		var got wire.LocateResponse
		url := fmt.Sprintf("%s/v1/locate?lat=%v&lon=%v", ts.URL, rec.Lat, rec.Lon)
		if code := getJSON(t, client, url, &got); code != http.StatusOK {
			t.Fatalf("locate status %d", code)
		}
		if got.Region != want {
			t.Fatalf("record %d: GET region %d, want %d", i, got.Region, want)
		}
		body := fmt.Sprintf(`{"lat":%v,"lon":%v}`, rec.Lat, rec.Lon)
		if code := postJSON(t, client, ts.URL+"/v1/locate", body, &got); code != http.StatusOK {
			t.Fatalf("locate POST status %d", code)
		}
		if got.Region != want {
			t.Fatalf("record %d: POST region %d, want %d", i, got.Region, want)
		}
	}

	// Batch lookup equals the in-process batch, point for point.
	n := 100
	req := wire.LocateBatchRequest{Lats: make([]float64, n), Lons: make([]float64, n)}
	for i := 0; i < n; i++ {
		req.Lats[i] = ds.Records[i%ds.Len()].Lat
		req.Lons[i] = ds.Records[i%ds.Len()].Lon
	}
	want, err := idx.LocateBatch(req.Lats, req.Lons)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(req)
	var batch wire.LocateBatchResponse
	if code := postJSON(t, client, ts.URL+"/v1/locate_batch", string(body), &batch); code != http.StatusOK {
		t.Fatalf("locate_batch status %d", code)
	}
	if len(batch.Regions) != n || batch.Invalid != 0 || batch.Error != "" {
		t.Fatalf("batch response %+v", batch)
	}
	for i := range want {
		if batch.Regions[i] != want[i] {
			t.Fatalf("batch point %d: %d != in-process %d", i, batch.Regions[i], want[i])
		}
	}

	// Score matches the in-process calibrated score.
	rec := ds.Records[3]
	wantScore, err := idx.Score(rec, 0)
	if err != nil {
		t.Fatal(err)
	}
	feat, _ := json.Marshal(rec.X)
	var score scoreResponse
	scoreBody := fmt.Sprintf(`{"task":0,"lat":%v,"lon":%v,"features":%s}`, rec.Lat, rec.Lon, feat)
	if code := postJSON(t, client, ts.URL+"/v1/score", scoreBody, &score); code != http.StatusOK {
		t.Fatalf("score status %d", code)
	}
	if score.Score != wantScore {
		t.Errorf("score %v != in-process %v", score.Score, wantScore)
	}
	wantRegion, _ := idx.Locate(rec.Lat, rec.Lon)
	if score.Region != wantRegion {
		t.Errorf("score region %d != %d", score.Region, wantRegion)
	}

	// The stored report round-trips with NaN-able ratios as null.
	var rep map[string]any
	if code := getJSON(t, client, ts.URL+"/v1/report/0", &rep); code != http.StatusOK {
		t.Fatalf("report status %d", code)
	}
	wantRep, err := idx.Report(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep["ence"].(float64); got != wantRep.ENCE {
		t.Errorf("report ENCE %v != %v", got, wantRep.ENCE)
	}
	if rep["task_name"] != wantRep.TaskName {
		t.Errorf("report task_name %v != %v", rep["task_name"], wantRep.TaskName)
	}
	if code := getJSON(t, client, ts.URL+"/v1/report/99", nil); code != http.StatusNotFound {
		t.Errorf("report 99 status %d, want 404", code)
	}
	if code := getJSON(t, client, ts.URL+"/v1/report/abc", nil); code != http.StatusBadRequest {
		t.Errorf("report abc status %d, want 400", code)
	}
}

// TestServerReportNaNRatios pins the JSON sanitation: a report whose
// calibration ratio is NaN must serve as null, not fail to encode.
func TestServerReportNaNRatios(t *testing.T) {
	out, err := json.Marshal(newReportResponse(fairindex.TaskResult{
		TaskName:      "t",
		TrainCalRatio: math.NaN(),
		TestCalRatio:  math.Inf(1),
		ENCE:          0.25,
	}))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(out, &m); err != nil {
		t.Fatal(err)
	}
	if m["train_cal_ratio"] != nil || m["test_cal_ratio"] != nil {
		t.Errorf("NaN/Inf ratios not nulled: %v, %v", m["train_cal_ratio"], m["test_cal_ratio"])
	}
	if m["ence"].(float64) != 0.25 {
		t.Errorf("finite field mangled: %v", m["ence"])
	}
}

// TestServerBadRequests covers malformed JSON, wrong-arity batches
// and oversized batches.
func TestServerBadRequests(t *testing.T) {
	idx, _ := buildIndex(t)
	srv := New(idx, WithMaxBatch(100))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	cases := []struct {
		name, url, body string
		want            int
	}{
		{"locate malformed", "/v1/locate", `{"lat":`, http.StatusBadRequest},
		{"locate unknown field", "/v1/locate", `{"lat":1,"lon":2,"bogus":3}`, http.StatusBadRequest},
		{"locate trailing garbage", "/v1/locate", `{"lat":1,"lon":2}{"lat":3}`, http.StatusBadRequest},
		{"locate non-finite", "/v1/locate", `{"lat":1e999,"lon":2}`, http.StatusBadRequest},
		{"batch malformed", "/v1/locate_batch", `not json`, http.StatusBadRequest},
		{"batch wrong arity", "/v1/locate_batch", `{"lats":[1,2,3],"lons":[1,2]}`, http.StatusBadRequest},
		{"batch empty", "/v1/locate_batch", `{"lats":[],"lons":[]}`, http.StatusBadRequest},
		{"batch wrong types", "/v1/locate_batch", `{"lats":["a"],"lons":[1]}`, http.StatusBadRequest},
		{"score malformed", "/v1/score", `{{`, http.StatusBadRequest},
		{"score bad task", "/v1/score", `{"task":42,"lat":1,"lon":2,"features":[1,2,3]}`, http.StatusNotFound},
		{"score wrong feature arity", "/v1/score", `{"task":0,"lat":34,"lon":-118,"features":[1]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errBody wire.Error
			code := postJSON(t, client, ts.URL+tc.url, tc.body, &errBody)
			if code != tc.want {
				t.Errorf("status %d, want %d (error %q)", code, tc.want, errBody.Error)
			}
			if errBody.Error == "" {
				t.Error("error response carries no message")
			}
		})
	}

	// Oversized batch → 413.
	big := wire.LocateBatchRequest{Lats: make([]float64, 101), Lons: make([]float64, 101)}
	body, _ := json.Marshal(big)
	if code := postJSON(t, client, ts.URL+"/v1/locate_batch", string(body), nil); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch status %d, want 413", code)
	}

	// Wrong method → 405 from the method-scoped mux patterns.
	resp, err := client.Get(ts.URL + "/v1/locate_batch")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET locate_batch status %d, want 405", resp.StatusCode)
	}

	// Reload without a backing path → 409.
	if code := postJSON(t, client, ts.URL+"/v1/reload", ``, nil); code != http.StatusConflict {
		t.Errorf("pathless reload status %d, want 409", code)
	}
}

// TestServerBatchRejectsNonFiniteJSON: JSON cannot carry NaN/Inf, and
// an overflowing literal must be a 400, not a silently-wrong lookup.
// (The sentinel-region path itself is covered at the index level by
// TestIndexLocateBatchPartialErrors; the handler's Invalid accounting
// is defensive depth behind the decoder.)
func TestServerBatchRejectsNonFiniteJSON(t *testing.T) {
	idx, ds := buildIndex(t)
	ts := httptest.NewServer(New(idx))
	defer ts.Close()

	body := fmt.Sprintf(`{"lats":[%v,1e999],"lons":[%v,%v]}`,
		ds.Records[0].Lat, ds.Records[0].Lon, ds.Records[1].Lon)
	var errBody wire.Error
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/locate_batch", body, &errBody); code != http.StatusBadRequest {
		t.Errorf("overflowing literal status %d, want 400 (%q)", code, errBody.Error)
	}
}

// TestServerHotReloadUnderLoad hammers /v1/locate_batch from many
// goroutines while the index file is rewritten and hot-reloaded —
// run under -race this is the serving subsystem's central safety
// proof: every response is internally consistent with one of the two
// index generations, and no request ever errors. The catalog is the
// file-backed registry `fairindexctl serve` builds (serveFile).
func TestServerHotReloadUnderLoad(t *testing.T) {
	idxA, ds := buildIndex(t, fairindex.WithHeight(3), fairindex.WithSeed(1))
	idxB, _ := buildIndex(t, fairindex.WithHeight(6), fairindex.WithSeed(2))
	if idxA.NumRegions() == idxB.NumRegions() {
		t.Fatalf("want distinguishable generations, both have %d regions", idxA.NumRegions())
	}
	dir := t.TempDir()
	srv := serveFile(t, writeIndexFile(t, idxA, dir, "city.fidx"))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Precompute per-generation expectations.
	n := 64
	req := wire.LocateBatchRequest{Lats: make([]float64, n), Lons: make([]float64, n)}
	for i := 0; i < n; i++ {
		req.Lats[i] = ds.Records[i%ds.Len()].Lat
		req.Lons[i] = ds.Records[i%ds.Len()].Lon
	}
	wantA, err := idxA.LocateBatch(req.Lats, req.Lons)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := idxB.LocateBatch(req.Lats, req.Lons)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(req)

	const workers = 8
	const perWorker = 30
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := ts.Client()
			for i := 0; i < perWorker; i++ {
				resp, err := client.Post(ts.URL+"/v1/locate_batch", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var batch wire.LocateBatchResponse
				err = json.NewDecoder(resp.Body).Decode(&batch)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
				matches := func(want []int) bool {
					for j := range want {
						if batch.Regions[j] != want[j] {
							return false
						}
					}
					return true
				}
				if !matches(wantA) && !matches(wantB) {
					errs <- fmt.Errorf("response matches neither index generation: %v", batch.Regions[:8])
					return
				}
			}
		}()
	}

	// Concurrently flip the file between generations and hot-reload
	// via both the endpoint and the direct method. All failures go
	// through errs — t.Fatal must not be called off the test
	// goroutine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := ts.Client()
		for i := 0; i < 20; i++ {
			idx := idxA
			if i%2 == 0 {
				idx = idxB
			}
			blob, err := idx.MarshalBinary()
			if err != nil {
				errs <- err
				return
			}
			if err := os.WriteFile(filepath.Join(dir, "city.fidx"), blob, 0o644); err != nil {
				errs <- err
				return
			}
			if i%2 == 0 {
				resp, err := client.Post(ts.URL+"/v1/reload", "application/json", strings.NewReader(``))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("reload status %d", resp.StatusCode)
					return
				}
			} else if err := srv.Reload(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var health healthzResponse
	if code := getJSON(t, ts.Client(), ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if health.Reloads < 20 {
		t.Errorf("reloads = %d, want >= 20", health.Reloads)
	}

	// After the dust settles the server serves exactly the last
	// generation written.
	last := srv.Index()
	if last.NumRegions() != idxA.NumRegions() && last.NumRegions() != idxB.NumRegions() {
		t.Errorf("final index has %d regions, matching neither generation", last.NumRegions())
	}
}

// TestServerSwapKeepsOldRequestsSafe pins the invariant that
// registry.Swap, the call rebuild promotions use, returns the previous
// index intact (an in-flight request may still be reading it).
func TestServerSwapKeepsOldRequestsSafe(t *testing.T) {
	idxA, ds := buildIndex(t, fairindex.WithHeight(3), fairindex.WithSeed(1))
	idxB, _ := buildIndex(t, fairindex.WithHeight(5), fairindex.WithSeed(2))
	srv := New(idxA)
	old, err := srv.Registry().Swap(DefaultIndexName, idxB)
	if err != nil {
		t.Fatal(err)
	}
	if old != idxA {
		t.Fatal("Swap did not return the previous index")
	}
	// The old index still answers.
	rec := ds.Records[0]
	if _, err := old.Locate(rec.Lat, rec.Lon); err != nil {
		t.Fatal(err)
	}
	if srv.Index() != idxB {
		t.Fatal("Swap did not install the new index")
	}
	// A swap counts on its entry; /healthz counts Reload and
	// reload-one only.
	if info, _ := srv.Registry().Info(DefaultIndexName); info.Reloads != 1 {
		t.Errorf("entry reloads = %d", info.Reloads)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var health healthzResponse
	if err := json.NewDecoder(w.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Reloads != 0 {
		t.Errorf("healthz reloads = %d after a swap, want 0", health.Reloads)
	}
}

// TestReloadKeepsServingOnFailure: a reload pointing at a corrupt
// file must leave the live index untouched.
func TestReloadKeepsServingOnFailure(t *testing.T) {
	idx, _ := buildIndex(t)
	dir := t.TempDir()
	path := writeIndexFile(t, idx, dir, "city.fidx")
	srv := serveFile(t, path)
	if err := os.WriteFile(path, []byte("corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := srv.Reload(); err == nil {
		t.Fatal("expected reload error for corrupt file")
	}
	if srv.Index().NumRegions() != idx.NumRegions() {
		t.Error("failed reload disturbed the served index")
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/reload", ``, nil); code != http.StatusInternalServerError {
		t.Errorf("reload endpoint status %d, want 500", code)
	}
}

// TestServerQueryEndpoints drives /v1/range, /v1/knn and /v1/stats
// end to end against the library's own query results.
func TestServerQueryEndpoints(t *testing.T) {
	idx, _ := buildIndex(t)
	srv := New(idx)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	box := idx.Box()

	// Range: a quadrant window must match RangeQuery exactly.
	midLat := (box.MinLat + box.MaxLat) / 2
	midLon := (box.MinLon + box.MaxLon) / 2
	body := fmt.Sprintf(`{"min_lat":%v,"min_lon":%v,"max_lat":%v,"max_lon":%v}`,
		box.MinLat, box.MinLon, midLat, midLon)
	var rr wire.RangeResponse
	if code := postJSON(t, client, ts.URL+"/v1/range", body, &rr); code != http.StatusOK {
		t.Fatalf("range status %d", code)
	}
	want, err := idx.RangeQuery(fairindex.BBox{MinLat: box.MinLat, MinLon: box.MinLon, MaxLat: midLat, MaxLon: midLon})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Count != len(want) || len(rr.Regions) != len(want) {
		t.Fatalf("range returned %d regions, want %d", rr.Count, len(want))
	}
	for i, ov := range want {
		got := rr.Regions[i]
		if got.Region != ov.Region || got.Cells != ov.Cells || got.Fraction != ov.Fraction {
			t.Fatalf("range region %d: %+v, want %+v", i, got, ov)
		}
	}

	// kNN via GET and POST agree with NearestRegions.
	wantN, err := idx.NearestRegions(midLat, midLon, 3)
	if err != nil {
		t.Fatal(err)
	}
	var kg, kp wire.KNNResponse
	if code := getJSON(t, client, fmt.Sprintf("%s/v1/knn?lat=%v&lon=%v&k=3", ts.URL, midLat, midLon), &kg); code != http.StatusOK {
		t.Fatalf("knn GET status %d", code)
	}
	if code := postJSON(t, client, ts.URL+"/v1/knn", fmt.Sprintf(`{"lat":%v,"lon":%v,"k":3}`, midLat, midLon), &kp); code != http.StatusOK {
		t.Fatalf("knn POST status %d", code)
	}
	for i, nd := range wantN {
		if kg.Neighbors[i].Region != nd.Region || float64(kg.Neighbors[i].Distance) != nd.Distance {
			t.Fatalf("knn GET neighbor %d = %+v, want %+v", i, kg.Neighbors[i], nd)
		}
		if kp.Neighbors[i] != kg.Neighbors[i] {
			t.Fatalf("knn GET and POST disagree at %d", i)
		}
	}

	// Stats by explicit region list.
	regions := []int{want[0].Region}
	ws, err := idx.GroupStats(0, regions)
	if err != nil {
		t.Fatal(err)
	}
	var sr wire.StatsResponse
	if code := postJSON(t, client, ts.URL+"/v1/stats", fmt.Sprintf(`{"task":0,"regions":[%d]}`, regions[0]), &sr); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if sr.Count != ws.Count || float64(sr.ENCE) != ws.ENCE || len(sr.Regions) != 1 {
		t.Fatalf("stats = %+v, want aggregate of %+v", sr, ws)
	}

	// Stats by rectangle resolve through RangeQuery first.
	var sr2 wire.StatsResponse
	if code := postJSON(t, client, ts.URL+"/v1/stats", fmt.Sprintf(`{"task":0,"rect":%s}`, body), &sr2); code != http.StatusOK {
		t.Fatalf("stats-by-rect status %d", code)
	}
	ids := make([]int, len(want))
	for i, ov := range want {
		ids[i] = ov.Region
	}
	wantW, err := idx.GroupStats(0, ids)
	if err != nil {
		t.Fatal(err)
	}
	if sr2.Count != wantW.Count || float64(sr2.ENCE) != wantW.ENCE || len(sr2.Regions) != len(wantW.Regions) {
		t.Fatalf("stats-by-rect = %+v, want aggregate over %v", sr2, ids)
	}
}

// TestServerQueryBadRequests pins the edge-case contract of the query
// endpoints: malformed rectangles, k=0 and capability conflicts.
func TestServerQueryBadRequests(t *testing.T) {
	idx, _ := buildIndex(t)
	srv := New(idx, WithMaxBatch(8))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	box := idx.Box()

	cases := []struct {
		name, url, body string
		want            int
	}{
		{"range inverted rect", "/v1/range",
			fmt.Sprintf(`{"min_lat":%v,"min_lon":%v,"max_lat":%v,"max_lon":%v}`, box.MaxLat, box.MinLon, box.MinLat, box.MaxLon),
			http.StatusBadRequest},
		{"range non-numeric corner", "/v1/range",
			`{"min_lat":"south","min_lon":0,"max_lat":1,"max_lon":1}`,
			http.StatusBadRequest},
		{"range unknown field", "/v1/range", `{"min_lat":0,"bogus":1}`, http.StatusBadRequest},
		{"knn k=0", "/v1/knn", `{"lat":34,"lon":-118,"k":0}`, http.StatusBadRequest},
		{"knn negative k", "/v1/knn", `{"lat":34,"lon":-118,"k":-2}`, http.StatusBadRequest},
		{"knn k beyond cap", "/v1/knn", `{"lat":34,"lon":-118,"k":9}`, http.StatusRequestEntityTooLarge},
		{"stats no window", "/v1/stats", `{"task":0}`, http.StatusBadRequest},
		{"stats both windows", "/v1/stats",
			`{"task":0,"regions":[0],"rect":{"min_lat":0,"min_lon":0,"max_lat":1,"max_lon":1}}`,
			http.StatusBadRequest},
		{"stats duplicate region", "/v1/stats", `{"task":0,"regions":[1,1]}`, http.StatusBadRequest},
		{"stats region out of range", "/v1/stats", `{"task":0,"regions":[99999]}`, http.StatusBadRequest},
		{"stats unknown task", "/v1/stats", `{"task":42,"regions":[0]}`, http.StatusNotFound},
		{"stats window beyond cap", "/v1/stats", `{"task":0,"regions":[0,1,2,3,4,5,6,7,8]}`, http.StatusRequestEntityTooLarge},
		{"stats rect window beyond cap", "/v1/stats",
			fmt.Sprintf(`{"task":0,"rect":{"min_lat":%v,"min_lon":%v,"max_lat":%v,"max_lon":%v}}`,
				box.MinLat, box.MinLon, box.MaxLat, box.MaxLon), // full box >> 8 regions
			http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errResp wire.Error
			if code := postJSON(t, client, ts.URL+tc.url, tc.body, &errResp); code != tc.want {
				t.Fatalf("status %d, want %d (error %q)", code, tc.want, errResp.Error)
			}
			if errResp.Error == "" {
				t.Error("error body missing")
			}
		})
	}

	// GET /v1/knn parameter validation.
	if code := getJSON(t, client, ts.URL+"/v1/knn?lat=34&lon=-118", nil); code != http.StatusBadRequest {
		t.Errorf("missing k: status %d, want 400", code)
	}
	if code := getJSON(t, client, ts.URL+"/v1/knn?lat=34&lon=-118&k=abc", nil); code != http.StatusBadRequest {
		t.Errorf("non-numeric k: status %d, want 400", code)
	}

	// An empty window (rect off the map) aggregates to zero, not 400;
	// NaN calibration ratio serializes as null.
	raw, err := client.Post(ts.URL+"/v1/stats", "application/json",
		strings.NewReader(fmt.Sprintf(`{"task":0,"rect":{"min_lat":%v,"min_lon":%v,"max_lat":%v,"max_lon":%v}}`,
			box.MaxLat+1, box.MinLon, box.MaxLat+2, box.MaxLon)))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	blob, err := io.ReadAll(raw.Body)
	if err != nil {
		t.Fatal(err)
	}
	if raw.StatusCode != http.StatusOK {
		t.Fatalf("empty-window stats status %d: %s", raw.StatusCode, blob)
	}
	if !strings.Contains(string(blob), `"cal_ratio":null`) {
		t.Errorf("empty window should have null cal_ratio, got %s", blob)
	}
}

// TestServerAppendEndpoint drives the ingestion maintenance surface
// over real HTTP: append folds records into the default (and named)
// entry, the response reports drift, and /v1/indexes surfaces the
// live counters.
func TestServerAppendEndpoint(t *testing.T) {
	spec := dataset.LA()
	spec.NumRecords = 440
	all, err := dataset.Generate(spec, geo.MustGrid(32, 32))
	if err != nil {
		t.Fatal(err)
	}
	build := &dataset.Dataset{
		Name: all.Name, Grid: all.Grid, Box: all.Box,
		FeatureNames: all.FeatureNames, TaskNames: all.TaskNames,
		Records: all.Records[:400],
	}
	idx, err := fairindex.Build(build, fairindex.WithHeight(4), fairindex.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.SetDriftThresholds(map[string]float64{"ence": 1e-12}); err != nil {
		t.Fatal(err)
	}
	srv := New(idx)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	appendBody := func(recs []dataset.Record) string {
		type rec struct {
			ID       string    `json:"id"`
			Lat      float64   `json:"lat"`
			Lon      float64   `json:"lon"`
			Features []float64 `json:"features"`
			Labels   []int     `json:"labels"`
		}
		rows := make([]rec, len(recs))
		for i, r := range recs {
			rows[i] = rec{ID: r.ID, Lat: r.Lat, Lon: r.Lon, Features: r.X, Labels: r.Labels}
		}
		blob, err := json.Marshal(map[string]any{"records": rows})
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}

	var resp struct {
		Index              string  `json:"index"`
		Appended           int     `json:"appended"`
		Total              int     `json:"total"`
		Drift              float64 `json:"drift"`
		RebuildRecommended bool    `json:"rebuild_recommended"`
		Tasks              []struct {
			Task  int     `json:"task"`
			ENCE  float64 `json:"ence"`
			Drift float64 `json:"drift"`
		} `json:"tasks"`
	}
	if code := postJSON(t, client, ts.URL+"/v1/append", appendBody(all.Records[400:420]), &resp); code != http.StatusOK {
		t.Fatalf("append status %d", code)
	}
	if resp.Index != DefaultIndexName || resp.Appended != 20 || resp.Total != 20 {
		t.Fatalf("append response %+v", resp)
	}
	if resp.Drift <= 0 || !resp.RebuildRecommended || len(resp.Tasks) == 0 {
		t.Fatalf("append drift fields %+v", resp)
	}
	// The named route hits the same entry.
	if code := postJSON(t, client, ts.URL+"/v1/i/"+DefaultIndexName+"/append", appendBody(all.Records[420:]), &resp); code != http.StatusOK {
		t.Fatalf("named append status %d", code)
	}
	if resp.Total != 40 {
		t.Fatalf("named append total %d, want 40", resp.Total)
	}
	// In-process view agrees with the HTTP response.
	if idx.Appended() != 40 {
		t.Errorf("Appended() = %d, want 40", idx.Appended())
	}

	// The catalog listing surfaces the live counters.
	var listing struct {
		Indexes []struct {
			Name               string  `json:"name"`
			Appended           int     `json:"appended"`
			Drift              float64 `json:"drift"`
			RebuildRecommended bool    `json:"rebuild_recommended"`
		} `json:"indexes"`
	}
	if code := getJSON(t, client, ts.URL+"/v1/indexes", &listing); code != http.StatusOK {
		t.Fatalf("indexes status %d", code)
	}
	if len(listing.Indexes) != 1 {
		t.Fatalf("%d catalog entries", len(listing.Indexes))
	}
	e := listing.Indexes[0]
	if e.Appended != 40 || e.Drift <= 0 || !e.RebuildRecommended {
		t.Errorf("listing entry %+v", e)
	}
}

func TestServerAppendBadRequests(t *testing.T) {
	idx, ds := buildIndex(t)
	srv := New(idx, WithMaxBatch(2))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	rec := func(r dataset.Record) string {
		blob, _ := json.Marshal(map[string]any{
			"id": r.ID, "lat": r.Lat, "lon": r.Lon, "features": r.X, "labels": r.Labels,
		})
		return string(blob)
	}
	r0 := rec(ds.Records[0])

	cases := []struct {
		name string
		url  string
		body string
		code int
	}{
		{"empty batch", "/v1/append", `{"records":[]}`, http.StatusBadRequest},
		{"malformed json", "/v1/append", `{"records":`, http.StatusBadRequest},
		{"over max batch", "/v1/append", `{"records":[` + r0 + `,` + r0 + `,` + r0 + `]}`, http.StatusRequestEntityTooLarge},
		{"unknown index", "/v1/i/nope/append", `{"records":[` + r0 + `]}`, http.StatusNotFound},
		{"wrong arity", "/v1/append", `{"records":[{"lat":34,"lon":-118,"features":[],"labels":[1]}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if code := postJSON(t, client, ts.URL+tc.url, tc.body, nil); code != tc.code {
				t.Errorf("status %d, want %d", code, tc.code)
			}
		})
	}
	if idx.Appended() != 0 {
		t.Errorf("bad requests folded %d records", idx.Appended())
	}
}
