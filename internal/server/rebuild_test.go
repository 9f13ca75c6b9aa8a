package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	fairindex "fairindex"
	"fairindex/internal/dataset"
	"fairindex/internal/geo"
	"fairindex/internal/rebuild"
	"fairindex/internal/registry"
)

func quietLog() *log.Logger { return log.New(io.Discard, "", 0) }

func floatStr(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// recordsBody renders an append request over the given records.
func recordsBody(t *testing.T, recs []dataset.Record) string {
	t.Helper()
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

// rebuildCity generates the 340-record workload the rebuild tests
// share (the same deterministic split internal/rebuild pins its gate
// verdicts on): the serving index trains on the first 300 records,
// the last 40 drive drift over HTTP, and the full set is the fresh
// feed a good rebuild trains on.
func rebuildCity(t *testing.T) (all, build *dataset.Dataset) {
	t.Helper()
	spec := dataset.LA()
	spec.NumRecords = 340
	all, err := dataset.Generate(spec, geo.MustGrid(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	build = &dataset.Dataset{
		Name: all.Name, Grid: all.Grid, Box: all.Box,
		FeatureNames: all.FeatureNames, TaskNames: all.TaskNames,
		Records: all.Records[:300],
	}
	return all, build
}

// flipRebuildLabels inverts every label — training data whose
// feature→label association is destroyed, so a candidate built from
// it regresses the calibration metrics against the serving index.
func flipRebuildLabels(ds *dataset.Dataset) *dataset.Dataset {
	recs := make([]dataset.Record, len(ds.Records))
	copy(recs, ds.Records)
	for i := range recs {
		labels := make([]int, len(recs[i].Labels))
		for j, l := range recs[i].Labels {
			labels[j] = 1 - l
		}
		recs[i].Labels = labels
	}
	return &dataset.Dataset{
		Name: ds.Name, Grid: ds.Grid, Box: ds.Box,
		FeatureNames: ds.FeatureNames, TaskNames: ds.TaskNames,
		Records: recs,
	}
}

// rebuildListing is the /v1/indexes slice the rebuild tests read.
type rebuildListing struct {
	Indexes []struct {
		Name               string  `json:"name"`
		Appended           int     `json:"appended"`
		Drift              float64 `json:"drift"`
		RebuildRecommended bool    `json:"rebuild_recommended"`
		Rebuild            *struct {
			State         string              `json:"state"`
			Attempts      int                 `json:"attempts"`
			Error         string              `json:"error"`
			LastPromoted  string              `json:"last_promoted"`
			RefusalDeltas map[string]*float64 `json:"refusal_deltas"`
			NextRetry     string              `json:"next_retry"`
		} `json:"rebuild"`
	} `json:"indexes"`
}

// pollRebuildState polls GET /v1/indexes until the named entry's
// rebuild state matches want (the asynchronous 202 contract: kick,
// then observe the outcome in the listing).
func pollRebuildState(t *testing.T, client *http.Client, url, name, want string) rebuildListing {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var listing rebuildListing
		if code := getJSON(t, client, url+"/v1/indexes", &listing); code != http.StatusOK {
			t.Fatalf("indexes status %d", code)
		}
		for _, e := range listing.Indexes {
			if e.Name == name && e.Rebuild != nil && e.Rebuild.State == want {
				return listing
			}
		}
		if time.Now().After(deadline) {
			for _, e := range listing.Indexes {
				if e.Name == name && e.Rebuild != nil {
					t.Fatalf("entry %q never reached rebuild state %q (state %q, error %q)",
						name, want, e.Rebuild.State, e.Rebuild.Error)
				}
			}
			t.Fatalf("entry %q never reached rebuild state %q (no rebuild state)", name, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerRebuildNotConfigured pins the no-controller behavior: the
// rebuild routes answer 501 and the index listing carries no rebuild
// field (byte-compat with catalogs that never heard of rebuilds).
func TestServerRebuildNotConfigured(t *testing.T) {
	idx, _ := buildIndex(t)
	ts := httptest.NewServer(New(idx))
	defer ts.Close()
	client := ts.Client()

	if code := postJSON(t, client, ts.URL+"/v1/rebuild", "", nil); code != http.StatusNotImplemented {
		t.Errorf("rebuild without controller: status %d, want 501", code)
	}
	var listing rebuildListing
	if code := getJSON(t, client, ts.URL+"/v1/indexes", &listing); code != http.StatusOK {
		t.Fatalf("indexes status %d", code)
	}
	if len(listing.Indexes) != 1 || listing.Indexes[0].Rebuild != nil {
		t.Errorf("listing without controller carries rebuild state: %+v", listing.Indexes)
	}
}

// TestServerRebuildPromotionE2E is the acceptance loop over real
// HTTP: an armed entry whose appended drift crosses the threshold is
// rebuilt by the bound controller, gated, atomically promoted on disk
// and swapped into the catalog — all while a query hammer keeps
// hitting the entry and every response stays 200. The outcome is
// observable in GET /v1/indexes.
func TestServerRebuildPromotionE2E(t *testing.T) {
	all, build := rebuildCity(t)
	idx, err := fairindex.Build(build, fairindex.WithHeight(3), fairindex.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := writeIndexFile(t, idx, dir, "la.fidx")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	reg := registry.New(registry.WithLogger(quietLog()),
		registry.WithDriftThresholds(map[string]float64{"ence": 1e-12}))
	if err := reg.Add("la", path); err != nil {
		t.Fatal(err)
	}
	srv := NewMulti(reg)
	ctrl, err := rebuild.New(reg,
		func(string) (fairindex.Source, func() error, error) {
			return fairindex.NewDatasetSource(all), nil, nil
		},
		rebuild.WithLogger(quietLog()))
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	ctrl.Bind()
	srv.SetRebuilder(ctrl)

	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	// Query hammer: no request may be dropped across the promotion.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := all.Records[0]
		for {
			select {
			case <-stop:
				return
			default:
			}
			var out struct {
				Region int `json:"region"`
			}
			if code := getJSON(t, client, ts.URL+"/v1/i/la/locate?lat="+floatStr(r.Lat)+"&lon="+floatStr(r.Lon), &out); code != http.StatusOK {
				t.Errorf("locate during rebuild: status %d", code)
				return
			}
		}
	}()

	// Drift the entry over HTTP: the armed threshold fires the hook,
	// the hook kicks the controller, the controller promotes.
	if code := postJSON(t, client, ts.URL+"/v1/i/la/append", recordsBody(t, all.Records[300:320]), nil); code != http.StatusOK {
		t.Fatalf("append status %d", code)
	}
	listing := pollRebuildState(t, client, ts.URL, "la", rebuild.StatePromoted)
	close(stop)
	wg.Wait()

	e := listing.Indexes[0]
	if e.Rebuild.LastPromoted == "" || e.Rebuild.Error != "" || e.Rebuild.Attempts != 0 {
		t.Errorf("promoted rebuild state %+v", e.Rebuild)
	}
	// The promoted generation replaced the artifact bytes and serves
	// with a clean fold counter and disarmed recommendation.
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, blob) {
		t.Error("artifact bytes unchanged after promotion")
	}
	if e.Appended != 0 || e.RebuildRecommended {
		t.Errorf("promoted entry still carries folds/recommendation: %+v", e)
	}
	if _, err := fairindex.LoadIndex(path); err != nil {
		t.Fatalf("promoted artifact does not load: %v", err)
	}
}

// TestServerRebuildRefusalE2E drives the explicit kick: POST
// .../rebuild answers 202, the label-flipped feed regresses ENCE, the
// gate refuses, the serving artifact stays byte-identical, and the
// refusal (state + per-metric deltas) is observable in the listing.
func TestServerRebuildRefusalE2E(t *testing.T) {
	all, build := rebuildCity(t)
	idx, err := fairindex.Build(build, fairindex.WithHeight(3), fairindex.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := writeIndexFile(t, idx, dir, "la.fidx")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	reg := registry.New(registry.WithLogger(quietLog()))
	if err := reg.Add("la", path); err != nil {
		t.Fatal(err)
	}
	ctrl, err := rebuild.New(reg,
		func(string) (fairindex.Source, func() error, error) {
			return fairindex.NewDatasetSource(flipRebuildLabels(all)), nil, nil
		},
		rebuild.WithBudgets(map[string]float64{"ence": 0.001}),
		rebuild.WithLogger(quietLog()))
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	srv := NewMulti(reg)
	srv.SetRebuilder(ctrl)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	var kicked struct {
		Index   string `json:"index"`
		Started bool   `json:"started"`
		Rebuild *struct {
			State string `json:"state"`
		} `json:"rebuild"`
	}
	if code := postJSON(t, client, ts.URL+"/v1/i/la/rebuild", "", &kicked); code != http.StatusAccepted {
		t.Fatalf("rebuild kick status %d", code)
	}
	if kicked.Index != "la" || !kicked.Started || kicked.Rebuild == nil {
		t.Fatalf("kick response %+v", kicked)
	}

	listing := pollRebuildState(t, client, ts.URL, "la", rebuild.StateRefused)
	e := listing.Indexes[0]
	d, ok := e.Rebuild.RefusalDeltas["ence"]
	if !ok || d == nil || !(*d >= 0.001) {
		t.Errorf("refusal deltas %v, want ence >= budget", e.Rebuild.RefusalDeltas)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Error("serving artifact bytes changed by a refused rebuild")
	}

	// Unknown entries 404 even with a controller attached.
	if code := postJSON(t, client, ts.URL+"/v1/i/nope/rebuild", "", nil); code != http.StatusNotFound {
		t.Errorf("rebuild of unknown entry: status %d, want 404", code)
	}
}
