package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	fairindex "fairindex"
	"fairindex/internal/registry"
	"fairindex/internal/wire"
)

// TestServerStatsMetrics exercises the opt-in metrics surface on
// /v1/stats: explicit selection, empty-list = all registered, GET
// query-parameter form, unknown names, and the absence of the
// "metrics" key when the request does not opt in.
func TestServerStatsMetrics(t *testing.T) {
	idx, _ := buildIndex(t)
	ts := httptest.NewServer(New(idx))
	defer ts.Close()
	client := ts.Client()

	const rect = `"rect":{"min_lat":33.60,"min_lon":-118.70,"max_lat":34.40,"max_lon":-117.80}`

	var plain map[string]any
	if code := postJSON(t, client, ts.URL+"/v1/stats", `{"task":0,`+rect+`}`, &plain); code != http.StatusOK {
		t.Fatalf("plain stats: %d", code)
	}
	if _, ok := plain["metrics"]; ok {
		t.Errorf("metrics key present without opt-in: %v", plain["metrics"])
	}

	var some struct {
		ENCE    float64            `json:"ence"`
		Metrics map[string]float64 `json:"metrics"`
	}
	body := `{"task":0,` + rect + `,"metrics":["ence","stat_parity"]}`
	if code := postJSON(t, client, ts.URL+"/v1/stats", body, &some); code != http.StatusOK {
		t.Fatalf("stats with metrics: %d", code)
	}
	if len(some.Metrics) != 2 {
		t.Fatalf("metrics = %v, want ence + stat_parity", some.Metrics)
	}
	if some.Metrics["ence"] != some.ENCE {
		t.Errorf("metrics.ence %v != legacy ence %v", some.Metrics["ence"], some.ENCE)
	}

	var all struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	if code := postJSON(t, client, ts.URL+"/v1/stats", `{"task":0,`+rect+`,"metrics":[]}`, &all); code != http.StatusOK {
		t.Fatalf("stats with empty metrics list: %d", code)
	}
	if got, want := len(all.Metrics), len(fairindex.Metrics()); got != want {
		t.Errorf("empty list computed %d metrics, want all %d registered", got, want)
	}

	// GET form: same window as query parameters.
	url := ts.URL + "/v1/stats?task=0&rect=33.60,-118.70,34.40,-117.80&metrics=ence,stat_parity"
	var viaGet struct {
		ENCE    float64            `json:"ence"`
		Metrics map[string]float64 `json:"metrics"`
	}
	if code := getJSON(t, client, url, &viaGet); code != http.StatusOK {
		t.Fatalf("GET stats: %d", code)
	}
	if viaGet.ENCE != some.ENCE || len(viaGet.Metrics) != 2 ||
		viaGet.Metrics["stat_parity"] != some.Metrics["stat_parity"] {
		t.Errorf("GET answer %+v diverges from POST %+v", viaGet, some)
	}

	var errBody wire.Error
	badBody := `{"task":0,` + rect + `,"metrics":["no_such_metric"]}`
	if code := postJSON(t, client, ts.URL+"/v1/stats", badBody, &errBody); code != http.StatusBadRequest {
		t.Fatalf("unknown metric: %d, want 400", code)
	}
}

// TestServerCompareMetricDeltas checks that a metrics-bearing compare
// reports per-metric deltas against the baseline, consistent with the
// per-index values.
func TestServerCompareMetricDeltas(t *testing.T) {
	fair, zip := buildTwoPartitionings(t)
	reg := registry.New(registry.WithDefault("la-fair"))
	if err := reg.AddIndex("la-fair", fair); err != nil {
		t.Fatal(err)
	}
	if err := reg.AddIndex("la-zip", zip); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewMulti(reg))
	defer ts.Close()

	body := `{"indexes":["la-fair","la-zip"],"task":0,
		"rect":{"min_lat":33.60,"min_lon":-118.70,"max_lat":34.40,"max_lon":-117.80},
		"metrics":["ence","atkinson"]}`
	var resp struct {
		Indexes []struct {
			Name  string `json:"name"`
			Stats struct {
				Metrics map[string]float64 `json:"metrics"`
			} `json:"stats"`
			Delta *struct {
				Metrics map[string]float64 `json:"metrics"`
			} `json:"delta"`
		} `json:"indexes"`
	}
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/compare", body, &resp); code != http.StatusOK {
		t.Fatalf("compare: %d", code)
	}
	if len(resp.Indexes) != 2 {
		t.Fatalf("entries = %d", len(resp.Indexes))
	}
	base, other := resp.Indexes[0], resp.Indexes[1]
	if base.Delta != nil {
		t.Error("baseline entry carries a delta")
	}
	if other.Delta == nil || len(other.Delta.Metrics) != 2 {
		t.Fatalf("comparison delta = %+v, want 2 per-metric deltas", other.Delta)
	}
	for _, name := range []string{"ence", "atkinson"} {
		want := other.Stats.Metrics[name] - base.Stats.Metrics[name]
		if got := other.Delta.Metrics[name]; got != want {
			t.Errorf("delta[%s] = %v, want %v", name, got, want)
		}
	}

	// Locate mode must reject a metrics list.
	var errBody wire.Error
	locBody := `{"indexes":["la-fair","la-zip"],"lat":34.0,"lon":-118.3,"metrics":["ence"]}`
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/compare", locBody, &errBody); code != http.StatusBadRequest {
		t.Fatalf("locate+metrics: %d, want 400", code)
	}
}

// TestServerAppendPerMetricDrift arms a per-metric threshold through
// the registry option and checks the append response and /v1/indexes
// expose the per-metric drift maps.
func TestServerAppendPerMetricDrift(t *testing.T) {
	idx, ds := buildIndex(t)
	reg := registry.New(registry.WithDriftThresholds(map[string]float64{
		"stat_parity": 1e-12,
	}))
	if err := reg.AddIndex("la", idx); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewMulti(reg))
	defer ts.Close()
	client := ts.Client()

	rec := ds.Records[0]
	body := fmt.Sprintf(`{"records":[{"lat":%v,"lon":%v,"features":%s,"labels":%s}]}`,
		rec.Lat, rec.Lon, jsonFloats(rec.X), jsonInts(flipFirst(rec.Labels)))
	var resp struct {
		Drifts map[string]float64 `json:"drifts"`
		Tasks  []struct {
			Metrics map[string]float64 `json:"metrics"`
			Drifts  map[string]float64 `json:"drifts"`
		} `json:"tasks"`
	}
	if code := postJSON(t, client, ts.URL+"/v1/i/la/append", body, &resp); code != http.StatusOK {
		t.Fatalf("append: %d", code)
	}
	if _, ok := resp.Drifts["stat_parity"]; !ok {
		t.Errorf("append response drifts = %v, want stat_parity", resp.Drifts)
	}
	if len(resp.Tasks) == 0 || len(resp.Tasks[0].Metrics) < 2 {
		t.Errorf("per-task metric maps missing: %+v", resp.Tasks)
	}

	var listing struct {
		Indexes []struct {
			Name   string             `json:"name"`
			Drifts map[string]float64 `json:"drifts"`
		} `json:"indexes"`
	}
	if code := getJSON(t, client, ts.URL+"/v1/indexes", &listing); code != http.StatusOK {
		t.Fatalf("indexes: %d", code)
	}
	if len(listing.Indexes) != 1 {
		t.Fatalf("listing = %+v", listing)
	}
	if _, ok := listing.Indexes[0].Drifts["stat_parity"]; !ok {
		t.Errorf("catalog drifts = %v, want stat_parity", listing.Indexes[0].Drifts)
	}
}

func jsonFloats(v []float64) string {
	out := "["
	for i, f := range v {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("%v", f)
	}
	return out + "]"
}

func jsonInts(v []int) string {
	out := "["
	for i, n := range v {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("%d", n)
	}
	return out + "]"
}

// flipFirst returns a copy of labels with the first task's label
// inverted, so a single appended record moves the parity profile.
func flipFirst(labels []int) []int {
	out := append([]int(nil), labels...)
	if len(out) > 0 {
		out[0] = 1 - out[0]
	}
	return out
}
