package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	fairindex "fairindex"
	"fairindex/internal/registry"
	"fairindex/internal/wire"
)

// buildTwoPartitionings builds a fair and a zipcode index over the
// same dataset — the canonical side-by-side workload: one city, two
// fairness configurations.
func buildTwoPartitionings(t *testing.T) (fair, zip *fairindex.Index) {
	t.Helper()
	fairIdx, ds := buildIndex(t, fairindex.WithHeight(4), fairindex.WithSeed(7))
	zipIdx, err := fairindex.Build(ds, fairindex.WithMethod(fairindex.MethodZipCode), fairindex.WithHeight(4), fairindex.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	return fairIdx, zipIdx
}

// openDir serves every artifact in dir through registry.Open +
// NewMulti, entries loading lazily on first use.
func openDir(t *testing.T, dir string, opts ...registry.Option) *Server {
	t.Helper()
	reg, err := registry.Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return NewMulti(reg)
}

// TestServerMultiIndexEndToEnd serves a fair and a zipcode
// partitioning of the same city from one process and checks the whole
// multi-index surface: named routes answer from the right artifact,
// /v1/indexes reflects catalog state and codec versions, /v1/compare
// reports the cross-partitioning fairness delta, and the unprefixed
// routes keep answering from the default entry.
func TestServerMultiIndexEndToEnd(t *testing.T) {
	fairIdx, zipIdx := buildTwoPartitionings(t)
	dir := t.TempDir()
	writeIndexFile(t, fairIdx, dir, "la-fair.fidx")
	writeIndexFile(t, zipIdx, dir, "la-zip.fidx")

	srv := openDir(t, dir, registry.WithDefault("la-fair"))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	// The catalog starts lazy: listed, nothing resident.
	var list indexesResponse
	if code := getJSON(t, client, ts.URL+"/v1/indexes", &list); code != http.StatusOK {
		t.Fatalf("indexes status %d", code)
	}
	if list.Default != "la-fair" || len(list.Indexes) != 2 || list.Loaded != 0 {
		t.Fatalf("initial /v1/indexes = %+v", list)
	}
	for _, info := range list.Indexes {
		if info.State != registry.StateAvailable {
			t.Errorf("entry %q state %q before first use", info.Name, info.State)
		}
	}

	// Named locates answer per index, bit-identical to the in-process
	// artifacts; the two partitionings genuinely differ somewhere.
	box := fairIdx.Box()
	differs := false
	for i := 0; i < 25; i++ {
		lat := box.MinLat + (box.MaxLat-box.MinLat)*float64(i)/25
		lon := box.MinLon + (box.MaxLon-box.MinLon)*float64(i)/25
		wantFair, err := fairIdx.Locate(lat, lon)
		if err != nil {
			t.Fatal(err)
		}
		wantZip, err := zipIdx.Locate(lat, lon)
		if err != nil {
			t.Fatal(err)
		}
		var gotFair, gotZip, gotDefault wire.LocateResponse
		if code := getJSON(t, client, fmt.Sprintf("%s/v1/i/la-fair/locate?lat=%v&lon=%v", ts.URL, lat, lon), &gotFair); code != http.StatusOK {
			t.Fatalf("named locate status %d", code)
		}
		if code := getJSON(t, client, fmt.Sprintf("%s/v1/i/la-zip/locate?lat=%v&lon=%v", ts.URL, lat, lon), &gotZip); code != http.StatusOK {
			t.Fatalf("named locate status %d", code)
		}
		if code := getJSON(t, client, fmt.Sprintf("%s/v1/locate?lat=%v&lon=%v", ts.URL, lat, lon), &gotDefault); code != http.StatusOK {
			t.Fatalf("default locate status %d", code)
		}
		if gotFair.Region != wantFair || gotZip.Region != wantZip {
			t.Fatalf("point %d: named routes (%d, %d) != in-process (%d, %d)",
				i, gotFair.Region, gotZip.Region, wantFair, wantZip)
		}
		if gotDefault.Region != wantFair {
			t.Fatalf("point %d: default route %d != default entry %d", i, gotDefault.Region, wantFair)
		}
		if wantFair != wantZip {
			differs = true
		}
	}
	if !differs {
		t.Error("fair and zipcode partitionings agreed on every probe — comparison is vacuous")
	}

	// After use both entries are resident with the current codec.
	if code := getJSON(t, client, ts.URL+"/v1/indexes", &list); code != http.StatusOK {
		t.Fatalf("indexes status %d", code)
	}
	for _, info := range list.Indexes {
		if info.State != registry.StateLoaded {
			t.Errorf("entry %q state %q after use", info.Name, info.State)
		}
		if info.CodecVersion != fairIdx.CodecVersion() {
			t.Errorf("entry %q codec v%d, want v%d", info.Name, info.CodecVersion, fairIdx.CodecVersion())
		}
		if info.Regions == 0 || info.Dataset == "" || info.Method == "" {
			t.Errorf("entry %q artifact fields missing: %+v", info.Name, info)
		}
	}

	// Named range/stats answer from the right partitioning.
	midLat := (box.MinLat + box.MaxLat) / 2
	midLon := (box.MinLon + box.MaxLon) / 2
	rectBody := fmt.Sprintf(`{"min_lat":%v,"min_lon":%v,"max_lat":%v,"max_lon":%v}`,
		box.MinLat, box.MinLon, midLat, midLon)
	var rrFair wire.RangeResponse
	if code := postJSON(t, client, ts.URL+"/v1/i/la-fair/range", rectBody, &rrFair); code != http.StatusOK {
		t.Fatalf("named range status %d", code)
	}
	wantOv, err := fairIdx.RangeQuery(fairindex.BBox{MinLat: box.MinLat, MinLon: box.MinLon, MaxLat: midLat, MaxLon: midLon})
	if err != nil {
		t.Fatal(err)
	}
	if rrFair.Count != len(wantOv) {
		t.Errorf("named range count %d, want %d", rrFair.Count, len(wantOv))
	}

	// Compare (stats mode): per-index windows resolve through each
	// index's own RangeQuery, and the delta equals the difference of
	// the two in-process aggregates.
	cmpBody := fmt.Sprintf(`{"indexes":["la-fair","la-zip"],"task":0,"rect":%s}`, rectBody)
	var cmpResp compareResponse
	if code := postJSON(t, client, ts.URL+"/v1/compare", cmpBody, &cmpResp); code != http.StatusOK {
		t.Fatalf("compare status %d", code)
	}
	if cmpResp.Op != "stats" || cmpResp.Baseline != "la-fair" || len(cmpResp.Indexes) != 2 {
		t.Fatalf("compare = %+v", cmpResp)
	}
	statsOf := func(idx *fairindex.Index) fairindex.WindowStats {
		t.Helper()
		ov, err := idx.RangeQuery(fairindex.BBox{MinLat: box.MinLat, MinLon: box.MinLon, MaxLat: midLat, MaxLon: midLon})
		if err != nil {
			t.Fatal(err)
		}
		regions := make([]int, len(ov))
		for i := range ov {
			regions[i] = ov[i].Region
		}
		ws, err := idx.GroupStats(0, regions)
		if err != nil {
			t.Fatal(err)
		}
		return ws
	}
	wsFair, wsZip := statsOf(fairIdx), statsOf(zipIdx)
	if got := float64(cmpResp.Indexes[0].Stats.ENCE); got != wsFair.ENCE {
		t.Errorf("baseline ENCE %v != in-process %v", got, wsFair.ENCE)
	}
	if got := float64(cmpResp.Indexes[1].Stats.ENCE); got != wsZip.ENCE {
		t.Errorf("compared ENCE %v != in-process %v", got, wsZip.ENCE)
	}
	if cmpResp.Indexes[0].Delta != nil {
		t.Error("baseline entry carries a delta")
	}
	if cmpResp.Indexes[1].Delta == nil {
		t.Fatal("compared entry missing its delta")
	}
	if got, want := float64(cmpResp.Indexes[1].Delta.ENCE), wsZip.ENCE-wsFair.ENCE; got != want {
		t.Errorf("ENCE delta %v, want %v", got, want)
	}

	// Compare (locate mode) agrees with the per-index locates.
	rec := 0.25
	lat := box.MinLat + (box.MaxLat-box.MinLat)*rec
	lon := box.MinLon + (box.MaxLon-box.MinLon)*rec
	locBody := fmt.Sprintf(`{"indexes":["la-fair","la-zip"],"lat":%v,"lon":%v}`, lat, lon)
	if code := postJSON(t, client, ts.URL+"/v1/compare", locBody, &cmpResp); code != http.StatusOK {
		t.Fatalf("compare locate status %d", code)
	}
	wantFair, _ := fairIdx.Locate(lat, lon)
	wantZip, _ := zipIdx.Locate(lat, lon)
	if cmpResp.Op != "locate" ||
		*cmpResp.Indexes[0].Region != wantFair || *cmpResp.Indexes[1].Region != wantZip {
		t.Fatalf("compare locate = %+v (want %d, %d)", cmpResp, wantFair, wantZip)
	}
}

// TestServerNamedRouteErrors pins the status mapping of the catalog
// resolution path.
func TestServerNamedRouteErrors(t *testing.T) {
	idx, _ := buildIndex(t)
	dir := t.TempDir()
	writeIndexFile(t, idx, dir, "good.fidx")
	if err := os.WriteFile(filepath.Join(dir, "bad.fidx"), []byte("corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := openDir(t, dir)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	// Unknown name → 404.
	if code := getJSON(t, client, ts.URL+"/v1/i/nope/locate?lat=1&lon=2", nil); code != http.StatusNotFound {
		t.Errorf("unknown index status %d, want 404", code)
	}
	// Corrupt artifact discovered lazily → 502.
	if code := getJSON(t, client, ts.URL+"/v1/i/bad/locate?lat=1&lon=2", nil); code != http.StatusBadGateway {
		t.Errorf("corrupt artifact status %d, want 502", code)
	}
	// Two entries, no default → unprefixed routes 409.
	if code := getJSON(t, client, ts.URL+"/v1/locate?lat=1&lon=2", nil); code != http.StatusConflict {
		t.Errorf("no-default status %d, want 409", code)
	}
	// The good entry still answers by name.
	if code := getJSON(t, client, ts.URL+"/v1/i/good/locate?lat=34&lon=-118", nil); code != http.StatusOK {
		t.Errorf("good entry status %d", code)
	}
	// Per-entry reload of the corrupt artifact fails 500 and the
	// catalog marks it failed.
	if code := postJSON(t, client, ts.URL+"/v1/i/bad/reload", ``, nil); code != http.StatusInternalServerError {
		t.Errorf("corrupt reload status %d, want 500", code)
	}
	var list indexesResponse
	getJSON(t, client, ts.URL+"/v1/indexes", &list)
	for _, info := range list.Indexes {
		if info.Name == "bad" && (info.State != registry.StateFailed || info.Error == "") {
			t.Errorf("bad entry = %+v", info)
		}
	}
	// Unknown per-entry reload → 404.
	if code := postJSON(t, client, ts.URL+"/v1/i/nope/reload", ``, nil); code != http.StatusNotFound {
		t.Errorf("unknown reload status %d, want 404", code)
	}
}

// TestServerCompareValidation covers the /v1/compare request rules.
func TestServerCompareValidation(t *testing.T) {
	idx, _ := buildIndex(t)
	srv := New(idx)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	cases := []struct {
		name, body string
		want       int
	}{
		{"too few indexes", `{"indexes":["default"],"lat":1,"lon":2}`, http.StatusBadRequest},
		{"no mode", `{"indexes":["default","default2"]}`, http.StatusBadRequest},
		{"both modes", `{"indexes":["default","default2"],"lat":1,"lon":2,"task":0,"regions":[0]}`, http.StatusBadRequest},
		{"stats without window", `{"indexes":["default","default2"],"task":0}`, http.StatusBadRequest},
		{"duplicate names", `{"indexes":["default","default"],"lat":1,"lon":2}`, http.StatusBadRequest},
		{"unknown name", `{"indexes":["default","ghost"],"lat":1,"lon":2}`, http.StatusNotFound},
		{"malformed", `{"indexes":`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errBody wire.Error
			if code := postJSON(t, client, ts.URL+"/v1/compare", tc.body, &errBody); code != tc.want {
				t.Errorf("status %d, want %d (error %q)", code, tc.want, errBody.Error)
			}
		})
	}
}

// TestServerTwoIndexConcurrentReload is the multi-index slice of the
// hot-reload safety proof: clients hammer two named entries while one
// of them flips between generations via per-entry reloads. Every
// response must be internally consistent with one generation of the
// addressed entry, and the stable entry must never waver.
func TestServerTwoIndexConcurrentReload(t *testing.T) {
	idxA, ds := buildIndex(t, fairindex.WithHeight(3), fairindex.WithSeed(1))
	idxB, _ := buildIndex(t, fairindex.WithHeight(6), fairindex.WithSeed(2))
	stable, _ := buildIndex(t, fairindex.WithHeight(4), fairindex.WithSeed(3))
	if idxA.NumRegions() == idxB.NumRegions() {
		t.Fatal("want distinguishable generations")
	}
	dir := t.TempDir()
	writeIndexFile(t, idxA, dir, "hot.fidx")
	writeIndexFile(t, stable, dir, "stable.fidx")
	srv := openDir(t, dir)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	n := 32
	lats := make([]float64, n)
	lons := make([]float64, n)
	for i := 0; i < n; i++ {
		lats[i] = ds.Records[i%ds.Len()].Lat
		lons[i] = ds.Records[i%ds.Len()].Lon
	}
	expect := func(idx *fairindex.Index) []int {
		regions, err := idx.LocateBatch(lats, lons)
		if err != nil {
			t.Fatal(err)
		}
		return regions
	}
	wantA, wantB, wantStable := expect(idxA), expect(idxB), expect(stable)
	body, _ := json.Marshal(wire.LocateBatchRequest{Lats: lats, Lons: lons})

	matches := func(got, want []int) bool {
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}

	const workers = 6
	const perWorker = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := ts.Client()
			for i := 0; i < perWorker; i++ {
				entry, wants := "hot", [][]int{wantA, wantB}
				if (w+i)%2 == 0 {
					entry, wants = "stable", [][]int{wantStable}
				}
				resp, err := client.Post(ts.URL+"/v1/i/"+entry+"/locate_batch", "application/json", bytes.NewReader(body))
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
					errs <- fmt.Errorf("worker %d: status %d", w, resp.StatusCode)
					return
				}
				ok := false
				for _, want := range wants {
					if matches(batch.Regions, want) {
						ok = true
					}
				}
				if !ok {
					errs <- fmt.Errorf("worker %d: %q response matches no generation", w, entry)
					return
				}
			}
		}(w)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		client := ts.Client()
		for i := 0; i < 20; i++ {
			gen := idxA
			if i%2 == 0 {
				gen = idxB
			}
			blob, err := gen.MarshalBinary()
			if err != nil {
				errs <- err
				return
			}
			// Replace the artifact atomically, as docs/QUERIES.md asks of
			// writers: a worker's lazy first load of "hot" may read the
			// file at any moment, and an in-place write can hand it a
			// torn artifact.
			tmp := filepath.Join(dir, "hot.fidx.tmp")
			if err := os.WriteFile(tmp, blob, 0o644); err != nil {
				errs <- err
				return
			}
			if err := os.Rename(tmp, filepath.Join(dir, "hot.fidx")); err != nil {
				errs <- err
				return
			}
			resp, err := client.Post(ts.URL+"/v1/i/hot/reload", "application/json", nil)
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("per-entry reload status %d", resp.StatusCode)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
