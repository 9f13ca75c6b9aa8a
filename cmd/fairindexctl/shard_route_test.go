package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	fairindex "fairindex"
	"fairindex/internal/server"
	"fairindex/internal/shard"
)

// TestMain doubles as the subprocess entry point for the shard-route
// e2e: with FAIRINDEXCTL_SUBPROCESS set, the test binary behaves as
// the real fairindexctl, so shard backends and the router run as
// genuine separate processes without a prior `go build`.
func TestMain(m *testing.M) {
	if os.Getenv("FAIRINDEXCTL_SUBPROCESS") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestShardCmd pins the artifact-splitting command: the manifest and
// every shard file land on disk, decode, and agree with the source
// index's generation and region ranges.
func TestShardCmd(t *testing.T) {
	dir := t.TempDir()
	_, idxPath, _ := writeCityAndIndex(t, dir)
	outDir := filepath.Join(dir, "shards")

	var sb strings.Builder
	if err := runShardCmd([]string{"-n", "3", "-out", outDir, idxPath}, &sb); err != nil {
		t.Fatal(err)
	}
	whole, err := fairindex.LoadIndex(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := whole.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	blob, err := os.ReadFile(filepath.Join(outDir, "city.manifest"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := shard.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if m.Generation != gen {
		t.Errorf("manifest generation %d, whole fingerprint %d", m.Generation, gen)
	}
	if len(m.Shards) != 3 || m.NumRegions != whole.NumRegions() {
		t.Fatalf("manifest shape: %d shards over %d regions", len(m.Shards), m.NumRegions)
	}
	for i, s := range m.Shards {
		sx, err := fairindex.LoadIndex(filepath.Join(outDir, fmt.Sprintf("city-%s.fidx", s.Name)))
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if got, want := sx.NumRegions(), m.LocalRegions(i); got != want {
			t.Errorf("shard %s: %d regions, manifest says %d", s.Name, got, want)
		}
		fp, err := sx.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fp != s.Fingerprint {
			t.Errorf("shard %s: fingerprint %d, manifest records %d", s.Name, fp, s.Fingerprint)
		}
	}
	if !strings.Contains(sb.String(), "city.manifest") {
		t.Errorf("summary output missing manifest line:\n%s", sb.String())
	}

	// Argument validation.
	if err := runShardCmd([]string{"-n", "3"}, io.Discard); err == nil {
		t.Error("expected error without an input artifact")
	}
	if err := runShardCmd([]string{"-n", "0", idxPath}, io.Discard); err == nil {
		t.Error("expected error for zero shards")
	}
}

func TestRouteArgValidation(t *testing.T) {
	if err := runRouteCmd([]string{"-shard", "s0=http://x"}); err == nil {
		t.Error("expected error without -manifest")
	}
	if err := runRouteCmd([]string{"-manifest", "/nonexistent.manifest"}); err == nil {
		t.Error("expected error without -shard backends")
	}
	if err := runRouteCmd([]string{"-manifest", "/nonexistent.manifest", "-shard", "s0=http://x"}); err == nil {
		t.Error("expected error for missing manifest file")
	}
	var b backendFlags
	if err := b.Set("nourl"); err == nil {
		t.Error("expected error for malformed -shard value")
	}
	if err := b.Set("s0=http://x"); err != nil || len(b) != 1 {
		t.Errorf("Set: %v (%d backends)", err, len(b))
	}
	// Replica sets: comma lists parse, repeated names merge, and an
	// empty replica URL is rejected.
	if err := b.Set("s1=http://a,http://b"); err != nil || len(b) != 2 || len(b[1].URLs) != 2 {
		t.Errorf("Set replica list: %v (%+v)", err, b)
	}
	if err := b.Set("s1=http://c"); err != nil || len(b) != 2 || len(b[1].URLs) != 3 {
		t.Errorf("Set repeated name: %v (%+v)", err, b)
	}
	if err := b.Set("s2=http://a,,http://b"); err == nil {
		t.Error("expected error for empty replica URL")
	}
}

// spawn re-execs the test binary as fairindexctl and waits for the
// listen line, returning the bound address.
func spawn(t *testing.T, args ...string) string {
	t.Helper()
	addr, _ := spawnProc(t, args...)
	return addr
}

// spawnProc is spawn exposing the child process too, so fault e2e
// tests can SIGKILL a replica mid-load.
func spawnProc(t *testing.T, args ...string) (string, *os.Process) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FAIRINDEXCTL_SUBPROCESS=1")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	})

	addrRe := regexp.MustCompile(` on (127\.0\.0\.1:\d+)`)
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := addrRe.FindStringSubmatch(sc.Text()); m != nil {
				addrCh <- m[1]
				// Keep draining so the child never blocks on a full pipe.
				for sc.Scan() {
				}
				return
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return addr, cmd.Process
	case <-time.After(15 * time.Second):
		t.Fatalf("subprocess %v never reported a listen address", args)
		return "", nil
	}
}

// TestShardRouteSubprocessE2E is the full deployment shape with real
// process isolation: shard the artifact, serve each shard from its own
// subprocess, front them with a route subprocess, and check the
// router's answers (and generation header) against the in-process
// whole index.
func TestShardRouteSubprocessE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e")
	}
	dir := t.TempDir()
	_, idxPath, ds := writeCityAndIndex(t, dir)
	outDir := filepath.Join(dir, "shards")
	if err := runShardCmd([]string{"-n", "3", "-out", outDir, idxPath}, io.Discard); err != nil {
		t.Fatal(err)
	}
	whole, err := fairindex.LoadIndex(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	manifestPath := filepath.Join(outDir, "city.manifest")
	blob, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	m, err := shard.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}

	routeArgs := []string{"route", "-http", "127.0.0.1:0", "-manifest", manifestPath}
	for _, s := range m.Shards {
		addr := spawn(t, "serve", "-http", "127.0.0.1:0",
			filepath.Join(outDir, fmt.Sprintf("city-%s.fidx", s.Name)))
		routeArgs = append(routeArgs, "-shard", s.Name+"=http://"+addr)
	}
	base := "http://" + spawn(t, routeArgs...)

	gen, err := whole.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	wantGen := strconv.FormatUint(gen, 10)

	// Point lookups across the dataset match the whole index, and
	// every response carries the whole artifact's generation.
	for i := 0; i < 10; i++ {
		r := ds.Records[i*17%len(ds.Records)]
		resp, err := http.Get(fmt.Sprintf("%s/v1/locate?lat=%v&lon=%v", base, r.Lat, r.Lon))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Region int `json:"region"`
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("locate: status %d: %s", resp.StatusCode, body)
		}
		if got := resp.Header.Get("Fairindex-Generation"); got != wantGen {
			t.Fatalf("generation %q, want %s", got, wantGen)
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		want, err := whole.Locate(r.Lat, r.Lon)
		if err != nil {
			t.Fatal(err)
		}
		if out.Region != want {
			t.Errorf("locate(%v,%v) = %d, want %d", r.Lat, r.Lon, out.Region, want)
		}
	}

	// Window stats over every region match the whole index exactly.
	task := whole.Tasks()[0]
	all := make([]string, whole.NumRegions())
	for i := range all {
		all[i] = strconv.Itoa(i)
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/stats?task=%d&regions=%s", base, task, strings.Join(all, ",")))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d: %s", resp.StatusCode, body)
	}
	var stats struct {
		Count   int      `json:"count"`
		ENCE    *float64 `json:"ence"`
		Partial bool     `json:"partial"`
		Regions []struct {
			Region int `json:"region"`
			Count  int `json:"count"`
		} `json:"regions"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	allIDs := make([]int, whole.NumRegions())
	for i := range allIDs {
		allIDs[i] = i
	}
	want, err := whole.GroupStats(task, allIDs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Partial {
		t.Error("healthy cluster answered partial stats")
	}
	if stats.Count != want.Count || len(stats.Regions) != len(want.Regions) {
		t.Fatalf("stats shape: count %d regions %d, want %d/%d",
			stats.Count, len(stats.Regions), want.Count, len(want.Regions))
	}
	gotENCE := math.NaN()
	if stats.ENCE != nil {
		gotENCE = *stats.ENCE
	}
	if math.Float64bits(gotENCE) != math.Float64bits(want.ENCE) && !(math.IsNaN(gotENCE) && math.IsNaN(want.ENCE)) {
		t.Errorf("ence %v, want %v", gotENCE, want.ENCE)
	}

	// The health surface sees every subprocess backend in sync.
	resp, err = http.Get(base + "/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var shardsOut struct {
		Generation string `json:"generation"`
		Shards     []struct {
			Name   string `json:"name"`
			Status string `json:"status"`
			Match  bool   `json:"match"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(body, &shardsOut); err != nil {
		t.Fatal(err)
	}
	if shardsOut.Generation != wantGen || len(shardsOut.Shards) != len(m.Shards) {
		t.Fatalf("shards surface: generation %q, %d shards", shardsOut.Generation, len(shardsOut.Shards))
	}
	for _, s := range shardsOut.Shards {
		if s.Status != "ok" || !s.Match {
			t.Errorf("shard %s: status %q match %v", s.Name, s.Status, s.Match)
		}
	}

	// Manifest hot-reload over HTTP answers with the same generation.
	resp, err = http.Post(base+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), wantGen) {
		t.Errorf("reload: status %d body %s", resp.StatusCode, body)
	}
}

// TestShardRouteFailoverSubprocessE2E is the kill-one-replica drill
// with real process isolation: two serve subprocesses per shard,
// SIGKILL one replica of every shard mid-hammer, and require zero
// non-200 kNN fan-outs with bodies identical to the whole index — the
// headline robustness acceptance criterion. kNN asks every shard, so
// each request reaches a replica (locates never do).
func TestShardRouteFailoverSubprocessE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e")
	}
	dir := t.TempDir()
	_, idxPath, ds := writeCityAndIndex(t, dir)
	outDir := filepath.Join(dir, "shards")
	if err := runShardCmd([]string{"-n", "2", "-out", outDir, idxPath}, io.Discard); err != nil {
		t.Fatal(err)
	}
	whole, err := fairindex.LoadIndex(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	manifestPath := filepath.Join(outDir, "city.manifest")
	blob, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	m, err := shard.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}

	// Two replicas per shard, the first of each doomed to SIGKILL.
	var doomed []*os.Process
	routeArgs := []string{"route", "-http", "127.0.0.1:0", "-manifest", manifestPath}
	for _, s := range m.Shards {
		artifact := filepath.Join(outDir, fmt.Sprintf("city-%s.fidx", s.Name))
		addrA, procA := spawnProc(t, "serve", "-http", "127.0.0.1:0", artifact)
		addrB := spawn(t, "serve", "-http", "127.0.0.1:0", artifact)
		doomed = append(doomed, procA)
		routeArgs = append(routeArgs, "-shard", s.Name+"=http://"+addrA+",http://"+addrB)
	}
	base := "http://" + spawn(t, routeArgs...)

	wts := httptest.NewServer(server.New(whole))
	defer wts.Close()
	get := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}
	knn := func(i int) {
		t.Helper()
		r := ds.Records[i*13%len(ds.Records)]
		path := fmt.Sprintf("/v1/knn?lat=%v&lon=%v&k=5", r.Lat, r.Lon)
		status, body := get(base + path)
		if status != http.StatusOK {
			t.Fatalf("knn %d: status %d: %s", i, status, body)
		}
		if _, want := get(wts.URL + path); body != want {
			t.Fatalf("knn %d:\nrouter %s\nwhole  %s", i, body, want)
		}
	}

	const total, killAt = 60, 20
	for i := 0; i < total; i++ {
		if i == killAt {
			for _, p := range doomed {
				p.Kill()
			}
		}
		knn(i)
	}

	// The health surface shows both replicas per shard, the dead one
	// marked unreachable, while the shard itself still reports ok.
	resp, err := http.Get(base + "/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var shardsOut struct {
		Shards []struct {
			Name     string `json:"name"`
			Status   string `json:"status"`
			Replicas []struct {
				Status string `json:"status"`
			} `json:"replicas"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(body, &shardsOut); err != nil {
		t.Fatal(err)
	}
	for _, s := range shardsOut.Shards {
		if s.Status != "ok" {
			t.Errorf("shard %s with a live replica: status %q", s.Name, s.Status)
		}
		if len(s.Replicas) != 2 {
			t.Fatalf("shard %s: %d replicas on the surface, want 2", s.Name, len(s.Replicas))
		}
		if !strings.HasPrefix(s.Replicas[0].Status, "unreachable") {
			t.Errorf("shard %s: killed replica status %q", s.Name, s.Replicas[0].Status)
		}
		if s.Replicas[1].Status != "ok" {
			t.Errorf("shard %s: surviving replica status %q", s.Name, s.Replicas[1].Status)
		}
	}
}
