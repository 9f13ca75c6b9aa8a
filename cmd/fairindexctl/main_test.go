package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	fairindex "fairindex"
	"fairindex/internal/dataset"
	"fairindex/internal/geo"
	"fairindex/internal/pipeline"
)

func TestBuildConfig(t *testing.T) {
	tests := []struct {
		method string
		want   pipeline.Method
	}{
		{"fair", pipeline.MethodFairKD},
		{"median", pipeline.MethodMedianKD},
		{"iterative", pipeline.MethodIterativeFairKD},
		{"multi", pipeline.MethodMultiObjectiveFairKD},
		{"gridrw", pipeline.MethodGridReweight},
		{"zipcode", pipeline.MethodZipCode},
		{"quadtree", pipeline.MethodFairQuadtree},
	}
	for _, tt := range tests {
		cfg, err := buildConfig(tt.method, "logreg", 6, 0, 1)
		if err != nil {
			t.Fatalf("%s: %v", tt.method, err)
		}
		if cfg.Method != tt.want {
			t.Errorf("%s -> %v, want %v", tt.method, cfg.Method, tt.want)
		}
	}
	if _, err := buildConfig("nope", "logreg", 6, 0, 1); err == nil {
		t.Error("expected unknown method error")
	}
	if _, err := buildConfig("fair", "nope", 6, 0, 1); err == nil {
		t.Error("expected unknown model error")
	}
	for _, model := range []string{"logreg", "dtree", "nb"} {
		if _, err := buildConfig("fair", model, 6, 0, 1); err != nil {
			t.Errorf("model %s: %v", model, err)
		}
	}
}

func TestLoadDatasetAndAssignment(t *testing.T) {
	// Round-trip a small city through a temp CSV and the pipeline,
	// then export the assignment.
	dir := t.TempDir()
	spec := dataset.LA()
	spec.NumRecords = 200
	grid := geo.MustGrid(16, 16)
	ds, err := dataset.Generate(spec, grid)
	if err != nil {
		t.Fatal(err)
	}
	csvPath := filepath.Join(dir, "city.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(ds, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	loaded, err := loadDataset(csvPath, grid, ds.Box)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 200 {
		t.Fatalf("loaded %d records", loaded.Len())
	}

	cfg, err := buildConfig("median", "logreg", 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.Run(loaded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "assign.csv")
	if err := writeAssignment(res, outPath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1+grid.NumCells() {
		t.Errorf("assignment rows = %d, want %d", len(lines), 1+grid.NumCells())
	}
	if lines[0] != "row,col,region" {
		t.Errorf("header = %q", lines[0])
	}
}

func TestBuildServeRoundTrip(t *testing.T) {
	// End-to-end: dataset CSV -> build (index file) -> serve (points
	// CSV -> region assignments).
	dir := t.TempDir()
	spec := dataset.LA()
	spec.NumRecords = 200
	grid := geo.MustGrid(16, 16)
	ds, err := dataset.Generate(spec, grid)
	if err != nil {
		t.Fatal(err)
	}
	csvPath := filepath.Join(dir, "city.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(ds, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	idxPath := filepath.Join(dir, "city.fidx")
	buildArgs := []string{
		"-in", csvPath, "-out", idxPath, "-grid", "16",
		"-method", "fair", "-height", "4", "-seed", "1",
		"-minlat", fmtF(ds.Box.MinLat), "-maxlat", fmtF(ds.Box.MaxLat),
		"-minlon", fmtF(ds.Box.MinLon), "-maxlon", fmtF(ds.Box.MaxLon),
	}
	if err := runBuildCmd(buildArgs); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(idxPath); err != nil || fi.Size() == 0 {
		t.Fatalf("index file missing or empty: %v", err)
	}

	// Points CSV with a header plus the first 10 records.
	pointsPath := filepath.Join(dir, "points.csv")
	var sb strings.Builder
	sb.WriteString("id,lat,lon\n")
	for i := 0; i < 10; i++ {
		r := ds.Records[i]
		sb.WriteString(r.ID + "," + fmtF(r.Lat) + "," + fmtF(r.Lon) + "\n")
	}
	if err := os.WriteFile(pointsPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	outPath := filepath.Join(dir, "regions.csv")
	if err := runServeCmd([]string{"-index", idxPath, "-csv", pointsPath, "-out", outPath}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 11 {
		t.Fatalf("serve output rows = %d, want 11:\n%s", len(lines), data)
	}
	if lines[0] != "id,lat,lon,region" {
		t.Errorf("header = %q", lines[0])
	}
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != 4 {
			t.Fatalf("row %q has %d fields", line, len(fields))
		}
		region, err := strconv.Atoi(fields[3])
		if err != nil || region < 0 {
			t.Errorf("row %q: bad region", line)
		}
	}
}

func TestParsePost(t *testing.T) {
	for s, want := range map[string]pipeline.PostProcess{
		"none": pipeline.PostNone, "platt": pipeline.PostPlatt, "isotonic": pipeline.PostIsotonic,
	} {
		got, err := parsePost(s)
		if err != nil || got != want {
			t.Errorf("parsePost(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := parsePost("sigmoid"); err == nil {
		t.Error("expected error for unknown post kind")
	}
}

func TestServeMissingInputs(t *testing.T) {
	if err := runServeCmd([]string{"-csv", "x.csv"}); err == nil {
		t.Error("expected error without -index")
	}
	if err := runServeCmd([]string{"-index", "/nonexistent.fidx", "-csv", "/nonexistent.csv"}); err == nil {
		t.Error("expected error for missing index file")
	}
}

// fmtF formats a float for CLI args and CSV rows.
func fmtF(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func TestLoadDatasetMissingFile(t *testing.T) {
	if _, err := loadDataset("/nonexistent/file.csv", geo.MustGrid(4, 4),
		geo.BBox{MinLat: 0, MinLon: 0, MaxLat: 1, MaxLon: 1}); err == nil {
		t.Error("expected error for missing file")
	}
}

// writeCityAndIndex builds a small dataset CSV + index file pair.
func writeCityAndIndex(t *testing.T, dir string) (csvPath, idxPath string, ds *dataset.Dataset) {
	t.Helper()
	spec := dataset.LA()
	spec.NumRecords = 200
	grid := geo.MustGrid(16, 16)
	ds, err := dataset.Generate(spec, grid)
	if err != nil {
		t.Fatal(err)
	}
	csvPath = filepath.Join(dir, "city.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(ds, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	idxPath = filepath.Join(dir, "city.fidx")
	if err := runBuildCmd([]string{
		"-in", csvPath, "-out", idxPath, "-grid", "16",
		"-method", "fair", "-height", "4", "-seed", "1",
		"-minlat", fmtF(ds.Box.MinLat), "-maxlat", fmtF(ds.Box.MaxLat),
		"-minlon", fmtF(ds.Box.MinLon), "-maxlon", fmtF(ds.Box.MaxLon),
	}); err != nil {
		t.Fatal(err)
	}
	return csvPath, idxPath, ds
}

// TestServeHTTPSmoke boots the HTTP server on an ephemeral port,
// queries /healthz and /v1/locate, and shuts it down via context
// cancellation — the CLI-level slice of the serving subsystem.
func TestServeHTTPSmoke(t *testing.T) {
	_, idxPath, ds := writeCityAndIndex(t, t.TempDir())

	srv, err := newServeServer([]indexSpec{{name: "city", path: idxPath}}, "", 0, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrCh := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- serveHTTP(ctx, srv, "127.0.0.1:0", func(a net.Addr) { addrCh <- a })
	}()
	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a.String()
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server did not come up")
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status  string `json:"status"`
		Regions int    `json:"regions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Regions < 2 {
		t.Fatalf("healthz = %+v", health)
	}

	rec := ds.Records[0]
	resp, err = http.Get(fmt.Sprintf("%s/v1/locate?lat=%v&lon=%v", base, rec.Lat, rec.Lon))
	if err != nil {
		t.Fatal(err)
	}
	var loc struct {
		Region int `json:"region"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&loc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if loc.Region < 0 || loc.Region >= health.Regions {
		t.Fatalf("locate region %d outside [0,%d)", loc.Region, health.Regions)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestServeCSVFlag covers the legacy mode behind -csv with a
// positional index argument.
// TestServeLoopClosesSlowHeaders pins the serve loop's slow-client
// bound: the http.Server serve and route run carries the connection
// limits, and a client that trickles out its request headers past
// ReadHeaderTimeout has its connection closed rather than held open.
func TestServeLoopClosesSlowHeaders(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.IdleTimeout != idleTimeout || hs.MaxHeaderBytes != maxHeaderBytes {
		t.Fatalf("serve loop limits = %v / %v / %d, want %v / %v / %d",
			hs.ReadHeaderTimeout, hs.IdleTimeout, hs.MaxHeaderBytes, readHeaderTimeout, idleTimeout, maxHeaderBytes)
	}
	hs.ReadHeaderTimeout = 200 * time.Millisecond

	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- runHTTP(ctx, hs, "127.0.0.1:0", func(net.Addr) {}, func() {}, func(a net.Addr) { addrCh <- a })
	}()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("serve loop: %v", err)
		}
	}()
	var addr net.Addr
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("serve loop exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("serve loop did not come up")
	}

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	closed := make(chan struct{})
	go func() {
		io.Copy(io.Discard, conn) // returns once the server closes the connection
		close(closed)
	}()
	// One header byte every 20ms: the headers would take seconds to
	// complete, far past the shortened timeout.
	start := time.Now()
	headers := "GET /healthz HTTP/1.1\r\nHost: fairindex\r\nX-Trickle: " + strings.Repeat("a", 200)
	for i := 0; i < len(headers); i++ {
		select {
		case <-closed:
			if elapsed := time.Since(start); elapsed > 3*time.Second {
				t.Fatalf("connection closed only after %v", elapsed)
			}
			return
		case <-time.After(20 * time.Millisecond):
		}
		if _, err := conn.Write([]byte{headers[i]}); err != nil {
			break // the server hung up between two bytes
		}
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("slow client's connection still open after its headers timed out")
	}
}

func TestServeCSVFlag(t *testing.T) {
	dir := t.TempDir()
	_, idxPath, ds := writeCityAndIndex(t, dir)
	pointsPath := filepath.Join(dir, "points.csv")
	var sb strings.Builder
	sb.WriteString("id,lat,lon\n")
	for i := 0; i < 5; i++ {
		r := ds.Records[i]
		sb.WriteString(r.ID + "," + fmtF(r.Lat) + "," + fmtF(r.Lon) + "\n")
	}
	if err := os.WriteFile(pointsPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "regions.csv")
	if err := runServeCmd([]string{"-csv", pointsPath, "-out", outPath, idxPath}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(string(data)), "\n"); len(lines) != 6 {
		t.Fatalf("rows = %d, want 6:\n%s", len(lines), data)
	}
}

// TestServeArgValidation covers the index-spec plumbing rules.
func TestServeArgValidation(t *testing.T) {
	if err := runServeCmd([]string{}); err == nil {
		t.Error("expected error for no index file and no -dir")
	}
	// Explicit entries fail fast when the file does not exist.
	if err := runServeCmd([]string{"/nonexistent/a.fidx"}); err == nil {
		t.Error("expected error for a missing explicit index file")
	}
	// CSV mode stays single-index.
	if err := runServeCmd([]string{"-csv", "p.csv", "a.fidx", "b.fidx"}); err == nil {
		t.Error("expected error for CSV mode with two index files")
	}
	if _, err := parseIndexSpec("la="); err == nil {
		t.Error("expected error for an empty path spec")
	}
	if _, err := newServeServer([]indexSpec{}, t.TempDir(), 0, "", nil); err == nil {
		t.Error("expected error for an empty artifact directory")
	}
	// A sole artifact holding garbage is the implicit default, which
	// boot resolves: serve refuses it instead of starting to answer 502.
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.fidx")
	if err := os.WriteFile(bad, []byte("not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		entries []indexSpec
		dir     string
	}{
		{entries: []indexSpec{{name: "bad", path: bad}}},
		{dir: dir},
	} {
		_, err := newServeServer(tc.entries, tc.dir, 0, "", nil)
		if err == nil || !strings.Contains(err.Error(), `loading "bad"`) {
			t.Errorf("corrupt sole artifact (entries %v, dir %q): boot error %v, want the default entry's load failure",
				tc.entries, tc.dir, err)
		}
	}
}

// TestServeRejectsBadDriftMetric pins that a negative or non-finite
// -drift-metric threshold stops serve at boot, naming the flag, where
// the registry option would drop it and serve with nothing armed.
func TestServeRejectsBadDriftMetric(t *testing.T) {
	for _, v := range []string{"stat_parity=-1", "stat_parity=NaN", "ence=+Inf"} {
		err := runServeCmd([]string{"-drift-metric", v, "/nonexistent/a.fidx"})
		if err == nil || !strings.Contains(err.Error(), "-drift-metric") {
			t.Errorf("-drift-metric %s: error %v, want one naming the flag", v, err)
		}
	}
	// 0 still disarms: boot gets past the flag to the missing file.
	err := runServeCmd([]string{"-drift-metric", "stat_parity=0", "/nonexistent/a.fidx"})
	if err == nil || strings.Contains(err.Error(), "-drift-metric") {
		t.Errorf("-drift-metric stat_parity=0: error %v, want the missing file's", err)
	}
}

// TestServeRejectsNegativeMaxIndexes pins that -max-indexes -1 is an
// error naming the flag instead of silently meaning unlimited.
func TestServeRejectsNegativeMaxIndexes(t *testing.T) {
	err := runServeCmd([]string{"-max-indexes", "-1", "/nonexistent/a.fidx"})
	if err == nil || !strings.Contains(err.Error(), "-max-indexes") {
		t.Errorf("-max-indexes -1: error %v, want one naming the flag", err)
	}
}

// TestParseIndexSpec covers [name=]path parsing and default naming.
func TestParseIndexSpec(t *testing.T) {
	got, err := parseIndexSpec("artifacts/la-fair-h8.fidx")
	if err != nil || got.name != "la-fair-h8" || got.path != "artifacts/la-fair-h8.fidx" {
		t.Errorf("parseIndexSpec = %+v, %v", got, err)
	}
	got, err = parseIndexSpec("la=west/city.fidx")
	if err != nil || got.name != "la" || got.path != "west/city.fidx" {
		t.Errorf("parseIndexSpec named = %+v, %v", got, err)
	}
}

// TestServeMultiIndex boots the CLI server over two differently
// partitioned indexes of the same dataset and checks the named
// routes, the catalog listing and the comparison endpoint — the
// CLI-level slice of multi-index serving.
func TestServeMultiIndex(t *testing.T) {
	dir := t.TempDir()
	_, idxPath, ds := writeCityAndIndex(t, dir)
	// Second partitioning of the same dataset, zipcode method.
	idxB, err := fairindex.Build(ds, fairindex.WithMethod(fairindex.MethodZipCode), fairindex.WithHeight(4), fairindex.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := idxB.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	zipPath := filepath.Join(dir, "zip.fidx")
	if err := os.WriteFile(zipPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	srv, err := newServeServer([]indexSpec{
		{name: "fair", path: idxPath},
		{name: "zip", path: zipPath},
	}, "", 0, "fair", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrCh := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- serveHTTP(ctx, srv, "127.0.0.1:0", func(a net.Addr) { addrCh <- a })
	}()
	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a.String()
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server did not come up")
	}

	getInto := func(url string, out any) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", url, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}

	var list struct {
		Default string `json:"default"`
		Indexes []struct {
			Name  string `json:"name"`
			State string `json:"state"`
		} `json:"indexes"`
	}
	getInto(base+"/v1/indexes", &list)
	if list.Default != "fair" || len(list.Indexes) != 2 {
		t.Fatalf("/v1/indexes = %+v", list)
	}

	// Named locates answer from the right index; the default route
	// matches the "fair" entry.
	rec := ds.Records[0]
	var def, fair, zip struct {
		Region int `json:"region"`
	}
	getInto(fmt.Sprintf("%s/v1/locate?lat=%v&lon=%v", base, rec.Lat, rec.Lon), &def)
	getInto(fmt.Sprintf("%s/v1/i/fair/locate?lat=%v&lon=%v", base, rec.Lat, rec.Lon), &fair)
	getInto(fmt.Sprintf("%s/v1/i/zip/locate?lat=%v&lon=%v", base, rec.Lat, rec.Lon), &zip)
	if def.Region != fair.Region {
		t.Errorf("default route region %d != named fair region %d", def.Region, fair.Region)
	}

	// Compare agrees with the per-index locates.
	body := fmt.Sprintf(`{"indexes":["fair","zip"],"lat":%v,"lon":%v}`, rec.Lat, rec.Lon)
	resp, err := http.Post(base+"/v1/compare", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var cmp struct {
		Op      string `json:"op"`
		Indexes []struct {
			Name   string `json:"name"`
			Region int    `json:"region"`
		} `json:"indexes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cmp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cmp.Op != "locate" || len(cmp.Indexes) != 2 ||
		cmp.Indexes[0].Region != fair.Region || cmp.Indexes[1].Region != zip.Region {
		t.Fatalf("/v1/compare = %+v (fair %d, zip %d)", cmp, fair.Region, zip.Region)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestBuildTimings pins the observability line: totals, worker count
// and (for parallel multi-task builds) the task-overlap figure.
func TestBuildTimings(t *testing.T) {
	spec := dataset.LA()
	spec.NumRecords = 200
	ds, err := dataset.Generate(spec, geo.MustGrid(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := fairindex.Build(ds, fairindex.WithHeight(3), fairindex.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	line := buildTimings(idx, 123*time.Millisecond)
	if !strings.Contains(line, "total 123ms") || !strings.Contains(line, "partition") {
		t.Errorf("timings line = %q", line)
	}
	if idx.TrainWorkers() == 1 && !strings.Contains(line, "on 1 worker") {
		t.Errorf("single-task line misses worker count: %q", line)
	}

	prev := runtime.GOMAXPROCS(4)
	multi, err := fairindex.Build(ds,
		fairindex.WithMethod(fairindex.MethodMultiObjectiveFairKD),
		fairindex.WithHeight(3), fairindex.WithSeed(1))
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if multi.TrainWorkers() < 2 {
		t.Fatalf("multi-task build used %d workers", multi.TrainWorkers())
	}
	line = buildTimings(multi, time.Second)
	if !strings.Contains(line, "workers, task overlap") {
		t.Errorf("parallel line misses task overlap: %q", line)
	}
}

// writeQueryIndex builds a small index and persists it for query
// subcommand tests.
func writeQueryIndex(t *testing.T) (string, *fairindex.Index) {
	t.Helper()
	spec := dataset.LA()
	spec.NumRecords = 200
	ds, err := dataset.Generate(spec, geo.MustGrid(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := fairindex.Build(ds, fairindex.WithHeight(4), fairindex.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := idx.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "city.fidx")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, idx
}

func TestQueryRange(t *testing.T) {
	path, idx := writeQueryIndex(t)
	box := idx.Box()
	var out strings.Builder
	args := []string{"range",
		"-minlat", fmtF(box.MinLat), "-maxlat", fmtF(box.MaxLat),
		"-minlon", fmtF(box.MinLon), "-maxlon", fmtF(box.MaxLon), path}
	if err := runQueryCmd(args, &out); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%d of %d neighborhoods intersect the window", idx.NumRegions(), idx.NumRegions())
	if !strings.Contains(out.String(), want) {
		t.Errorf("output %q missing %q", out.String(), want)
	}
	if got := strings.Count(out.String(), "region "); got != idx.NumRegions() {
		t.Errorf("listed %d regions, want %d", got, idx.NumRegions())
	}
}

func TestQueryKNN(t *testing.T) {
	path, idx := writeQueryIndex(t)
	box := idx.Box()
	lat := (box.MinLat + box.MaxLat) / 2
	lon := (box.MinLon + box.MaxLon) / 2
	var out strings.Builder
	if err := runQueryCmd([]string{"knn", "-lat", fmtF(lat), "-lon", fmtF(lon), "-k", "3", path}, &out); err != nil {
		t.Fatal(err)
	}
	neighbors, err := idx.NearestRegions(lat, lon, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "3 nearest neighborhoods") {
		t.Errorf("output %q missing header", out.String())
	}
	if !strings.Contains(out.String(), fmt.Sprintf("region %-4d", neighbors[0].Region)) {
		t.Errorf("output %q missing nearest region %d", out.String(), neighbors[0].Region)
	}
}

func TestQueryStats(t *testing.T) {
	path, idx := writeQueryIndex(t)
	var out strings.Builder
	if err := runQueryCmd([]string{"stats", "-task", "0", "-regions", "0,1,2", path}, &out); err != nil {
		t.Fatal(err)
	}
	ws, err := idx.GroupStats(0, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("window of 3 neighborhoods, population %d", ws.Count)
	if !strings.Contains(out.String(), want) {
		t.Errorf("output %q missing %q", out.String(), want)
	}

	// Window form: the whole box must aggregate the full population.
	box := idx.Box()
	out.Reset()
	args := []string{"stats", "-task", "0",
		"-minlat", fmtF(box.MinLat), "-maxlat", fmtF(box.MaxLat),
		"-minlon", fmtF(box.MinLon), "-maxlon", fmtF(box.MaxLon), path}
	if err := runQueryCmd(args, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "population 200") {
		t.Errorf("full-window output %q should cover all 200 records", out.String())
	}
}

func TestQueryArgValidation(t *testing.T) {
	path, _ := writeQueryIndex(t)
	var out strings.Builder
	cases := [][]string{
		{},                                 // no subcommand
		{"warp", path},                     // unknown subcommand
		{"range", path},                    // missing window
		{"knn", path},                      // missing point
		{"knn", "-lat", "1", "-lon", "2"},  // missing index file
		{"stats", "-task", "0", path},      // neither regions nor window
		{"stats", "-regions", "x,y", path}, // malformed region list
		{"knn", "-lat", "1", "-lon", "2", "-k", "0", path}, // bad k
		{"stats", "-task", "0", "-regions", "1,2", "-minlat", "33.9", "-maxlat", "34.1",
			"-minlon", "-118.4", "-maxlon", "-118.1", path}, // both window forms
	}
	for _, args := range cases {
		if err := runQueryCmd(args, &out); err == nil {
			t.Errorf("runQueryCmd(%v) succeeded, want error", args)
		}
	}
}

// TestWithENCEThreshold pins how the ENCE-only threshold flags fold
// into the per-metric map: a positive value becomes the "ence" entry,
// anything else adds nothing, and an explicit ence entry wins.
func TestWithENCEThreshold(t *testing.T) {
	for _, tc := range []struct {
		ence          float64
		metrics, want map[string]float64
	}{
		{-1, map[string]float64{}, map[string]float64{}},
		{0, map[string]float64{}, map[string]float64{}},
		{math.NaN(), map[string]float64{}, map[string]float64{}},
		{0.5, map[string]float64{}, map[string]float64{"ence": 0.5}},
		{0.5, map[string]float64{"stat_parity": 0.05}, map[string]float64{"ence": 0.5, "stat_parity": 0.05}},
		{0.5, map[string]float64{"ence": 0.1}, map[string]float64{"ence": 0.1}},
		{0.5, map[string]float64{"ence": 0}, map[string]float64{"ence": 0}},
	} {
		in := maps.Clone(tc.metrics)
		if got := withENCEThreshold(tc.ence, in); !maps.Equal(got, tc.want) {
			t.Errorf("withENCEThreshold(%v, %v) = %v, want %v", tc.ence, tc.metrics, got, tc.want)
		}
	}
}

// TestAppendCmd folds a CSV into a saved artifact with `append -out`
// over the same path, and checks the rewritten artifact reloads with
// exactly the ENCE drift an in-process fold of the same CSV reports.
func TestAppendCmd(t *testing.T) {
	dir := t.TempDir()
	_, idxPath, ds := writeCityAndIndex(t, dir)

	// Flipped labels guarantee the fold moves the calibration.
	extra := *ds
	extra.Records = make([]dataset.Record, 40)
	for i := range extra.Records {
		rec := ds.Records[i]
		rec.Labels = make([]int, len(ds.Records[i].Labels))
		for j, y := range ds.Records[i].Labels {
			rec.Labels[j] = 1 - y
		}
		extra.Records[i] = rec
	}
	extraPath := filepath.Join(dir, "extra.csv")
	f, err := os.Create(extraPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(&extra, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	want, err := fairindex.LoadIndex(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := loadDataset(extraPath, want.Grid(), want.Box())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := want.AppendBatch(recs.Records); err != nil {
		t.Fatal(err)
	}

	if err := runAppendCmd([]string{"-in", extraPath, "-threshold", "1e-12", "-out", idxPath, idxPath}); err != nil {
		t.Fatal(err)
	}
	got, err := fairindex.LoadIndex(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range want.Tasks() {
		wd, err := want.MetricDrift(task, fairindex.MetricENCE)
		if err != nil {
			t.Fatal(err)
		}
		gd, err := got.MetricDrift(task, fairindex.MetricENCE)
		if err != nil {
			t.Fatal(err)
		}
		if gd != wd || wd == 0 {
			t.Errorf("task %d: reloaded ENCE drift %v, want in-process %v (non-zero)", task, gd, wd)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Errorf("want city.csv, city.fidx and extra.csv only, got %v", entries)
	}
}
