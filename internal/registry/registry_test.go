package registry

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	fairindex "fairindex"
	"fairindex/internal/dataset"
	"fairindex/internal/geo"
)

// buildIndex builds a small LA index; the options pick distinct
// partitioning generations so tests can tell entries apart.
func buildIndex(t testing.TB, opts ...fairindex.Option) *fairindex.Index {
	t.Helper()
	spec := dataset.LA()
	spec.NumRecords = 300
	ds, err := dataset.Generate(spec, geo.MustGrid(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	if len(opts) == 0 {
		opts = []fairindex.Option{fairindex.WithHeight(3), fairindex.WithSeed(5)}
	}
	idx, err := fairindex.Build(ds, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// writeIndex marshals idx to dir/name and returns the path.
func writeIndex(t testing.TB, idx *fairindex.Index, dir, name string) string {
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

// quietLogger keeps eviction chatter out of test output.
func quietLogger() *log.Logger { return log.New(nopWriter{}, "", 0) }

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }

func TestRegistryLazyLoadAndLookup(t *testing.T) {
	idx := buildIndex(t)
	dir := t.TempDir()
	path := writeIndex(t, idx, dir, "la.fidx")

	r := New(WithLogger(quietLogger()))
	if err := r.Add("la", path); err != nil {
		t.Fatal(err)
	}
	if got := r.LoadedCount(); got != 0 {
		t.Fatalf("LoadedCount before first Lookup = %d, want 0 (lazy)", got)
	}
	got, err := r.Lookup("la")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRegions() != idx.NumRegions() {
		t.Errorf("loaded index has %d regions, want %d", got.NumRegions(), idx.NumRegions())
	}
	if r.LoadedCount() != 1 {
		t.Errorf("LoadedCount = %d, want 1", r.LoadedCount())
	}
	// Second lookup returns the exact same resident artifact.
	again, err := r.Lookup("la")
	if err != nil {
		t.Fatal(err)
	}
	if again != got {
		t.Error("second Lookup returned a different Index pointer")
	}
	if _, err := r.Lookup("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown name error = %v, want ErrNotFound", err)
	}
}

func TestRegistryNameValidationAndDuplicates(t *testing.T) {
	r := New()
	for _, bad := range []string{"", "a/b", `a\b`} {
		if err := r.Add(bad, "x.fidx"); !errors.Is(err, ErrBadName) {
			t.Errorf("Add(%q) error = %v, want ErrBadName", bad, err)
		}
	}
	if err := r.Add("la", "a.fidx"); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("la", "b.fidx"); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate Add error = %v, want ErrDuplicate", err)
	}
	if err := r.AddIndex("mem", nil); err == nil {
		t.Error("AddIndex(nil) succeeded")
	}
}

func TestRegistryDefault(t *testing.T) {
	idx := buildIndex(t)
	r := New()
	if _, err := r.Default(); !errors.Is(err, ErrNoDefault) {
		t.Errorf("empty registry Default error = %v, want ErrNoDefault", err)
	}
	if err := r.AddIndex("solo", idx); err != nil {
		t.Fatal(err)
	}
	// A sole entry is the implicit default.
	if got, err := r.Default(); err != nil || got != idx {
		t.Fatalf("sole-entry Default = %v, %v", got, err)
	}
	if err := r.AddIndex("other", idx); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Default(); !errors.Is(err, ErrNoDefault) {
		t.Errorf("two-entry Default error = %v, want ErrNoDefault", err)
	}
	// An explicit default resolves among several entries.
	r = New(WithDefault("solo"))
	for _, name := range []string{"solo", "other"} {
		if err := r.AddIndex(name, idx); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := r.Default(); err != nil || got != idx {
		t.Fatalf("explicit Default = %v, %v", got, err)
	}
	if r.DefaultName() != "solo" {
		t.Errorf("DefaultName = %q", r.DefaultName())
	}
}

func TestRegistryLRUEviction(t *testing.T) {
	idx := buildIndex(t)
	dir := t.TempDir()
	r := New(WithMaxLoaded(2), WithLogger(quietLogger()))
	for _, name := range []string{"a", "b", "c"} {
		if err := r.Add(name, writeIndex(t, idx, dir, name+".fidx")); err != nil {
			t.Fatal(err)
		}
	}
	mustLookup := func(name string) {
		t.Helper()
		if _, err := r.Lookup(name); err != nil {
			t.Fatal(err)
		}
	}
	mustLookup("a")
	mustLookup("b")
	if r.LoadedCount() != 2 {
		t.Fatalf("LoadedCount = %d, want 2", r.LoadedCount())
	}
	// Touch a so b is the LRU entry, then load c: b must be evicted.
	mustLookup("a")
	mustLookup("c")
	if r.LoadedCount() != 2 {
		t.Fatalf("LoadedCount after eviction = %d, want 2", r.LoadedCount())
	}
	states := map[string]string{}
	for _, info := range r.List() {
		states[info.Name] = info.State
	}
	if states["a"] != StateLoaded || states["c"] != StateLoaded || states["b"] != StateAvailable {
		t.Errorf("states after eviction = %v", states)
	}
	// The evicted entry transparently reloads on next use.
	mustLookup("b")
	if r.LoadedCount() != 2 {
		t.Errorf("LoadedCount after re-load = %d, want 2", r.LoadedCount())
	}
}

// entryStates maps every entry of r to its Info state.
func entryStates(r *Registry) map[string]string {
	out := map[string]string{}
	for _, info := range r.List() {
		out[info.Name] = info.State
	}
	return out
}

// TestRegistryAdmissionRefusesColdLoad pins the admission gate: at
// the bound, a lazy load whose entry has been looked up less often
// than the LRU victim answers its lookup but becomes resident only
// once its count catches up, and a refused load evicts nothing.
func TestRegistryAdmissionRefusesColdLoad(t *testing.T) {
	idx := buildIndex(t)
	dir := t.TempDir()
	var logged bytes.Buffer
	r := New(WithMaxLoaded(2), WithLogger(log.New(&logged, "", 0)))
	for _, name := range []string{"a", "b", "cold"} {
		if err := r.Add(name, writeIndex(t, idx, dir, name+".fidx")); err != nil {
			t.Fatal(err)
		}
	}
	for range 3 {
		for _, name := range []string{"a", "b"} {
			if _, err := r.Lookup(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	first, err := r.Lookup("cold")
	if err != nil {
		t.Fatal(err)
	}
	if first.NumRegions() != idx.NumRegions() {
		t.Fatalf("refused load answered with %d regions, want %d", first.NumRegions(), idx.NumRegions())
	}
	want := map[string]string{"a": StateLoaded, "b": StateLoaded, "cold": StateAvailable}
	if got := entryStates(r); !maps.Equal(got, want) {
		t.Fatalf("states after one cold lookup = %v, want %v", got, want)
	}
	if logged.Len() != 0 {
		t.Errorf("a refused load logged %q, want no eviction", logged.String())
	}
	// The second lookup loads again (nothing kept the refused index),
	// and the third brings the cold count level with the LRU victim
	// a's 3: equal counts admit, and a goes.
	second, err := r.Lookup("cold")
	if err != nil {
		t.Fatal(err)
	}
	if second == first {
		t.Error("a refused load was kept")
	}
	if _, err := r.Lookup("cold"); err != nil {
		t.Fatal(err)
	}
	want = map[string]string{"a": StateAvailable, "b": StateLoaded, "cold": StateLoaded}
	if got := entryStates(r); !maps.Equal(got, want) {
		t.Errorf("states once the cold count caught up = %v, want %v", got, want)
	}
	if got, want := logged.String(), "registry: evicted \"a\" (LRU, max 2 resident)\n"; got != want {
		t.Errorf("logged %q, want %q", got, want)
	}
}

// TestRegistryAppendAlwaysAdmits pins that an Append to an entry the
// admission gate would refuse still makes it resident, so the
// acknowledged fold is what the next lookup serves.
func TestRegistryAppendAlwaysAdmits(t *testing.T) {
	idx, extra := appendCity(t)
	dir := t.TempDir()
	r := New(WithMaxLoaded(1), WithLogger(quietLogger()))
	for _, name := range []string{"hot", "cold"} {
		if err := r.Add(name, writeIndex(t, idx, dir, name+".fidx")); err != nil {
			t.Fatal(err)
		}
	}
	for range 3 {
		if _, err := r.Lookup("hot"); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.Append("cold", extra[:20])
	if err != nil {
		t.Fatal(err)
	}
	if res.Appended != 20 {
		t.Fatalf("append result %+v", res)
	}
	want := map[string]string{"hot": StateAvailable, "cold": StateLoaded}
	if got := entryStates(r); !maps.Equal(got, want) {
		t.Fatalf("states after the append = %v, want %v", got, want)
	}
	got, err := r.Lookup("cold")
	if err != nil {
		t.Fatal(err)
	}
	if got.Appended() != 20 {
		t.Errorf("next lookup serves %d appended records, want 20", got.Appended())
	}
}

// TestRegistryAppendSurvivesEviction pins that the residency bound
// never drops acknowledged appends: an entry holding folded records
// is not an LRU victim, so lookups of another name churning the bound
// leave it resident and its next lookup still serves the fold.
func TestRegistryAppendSurvivesEviction(t *testing.T) {
	idx, extra := appendCity(t)
	dir := t.TempDir()
	r := New(WithMaxLoaded(1), WithLogger(quietLogger()))
	for _, name := range []string{"a", "b"} {
		if err := r.Add(name, writeIndex(t, idx, dir, name+".fidx")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Append("a", extra[:20]); err != nil {
		t.Fatal(err)
	}
	for range 3 {
		if _, err := r.Lookup("b"); err != nil {
			t.Fatal(err)
		}
	}
	got, err := r.Lookup("a")
	if err != nil {
		t.Fatal(err)
	}
	if got.Appended() != 20 {
		t.Errorf("lookup after eviction pressure serves %d appended records, want 20", got.Appended())
	}
}

// TestRegistryAdmissionZipfHitRatio drives a seeded Zipf(1.2) name
// sequence over 8 file-backed entries with 3 resident, the shape of a
// multi-tenant server whose few popular indexes outnumber its bound.
// Plain LRU misses about 40% of these lookups, and keeping the three
// most popular names resident would miss 27%; the admission gate
// must miss at most 33%. A lookup misses when the Index it returns
// for a name differs from the one returned for that name before.
func TestRegistryAdmissionZipfHitRatio(t *testing.T) {
	idx := buildIndex(t)
	dir := t.TempDir()
	r := New(WithMaxLoaded(3), WithLogger(quietLogger()))
	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("ix%d", i)
		if err := r.Add(names[i], writeIndex(t, idx, dir, names[i]+".fidx")); err != nil {
			t.Fatal(err)
		}
	}
	const lookups = 20_000
	zipf := rand.NewZipf(rand.New(rand.NewSource(11)), 1.2, 1, uint64(len(names)-1))
	last := map[string]*fairindex.Index{}
	misses := 0
	for range lookups {
		name := names[zipf.Uint64()]
		got, err := r.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if got != last[name] {
			misses++
			last[name] = got
		}
	}
	t.Logf("%d of %d lookups missed", misses, lookups)
	if share := float64(misses) / lookups; share > 0.33 {
		t.Errorf("%d of %d lookups missed (%.3f), want at most 0.33", misses, lookups, share)
	}
	if got := r.LoadedCount(); got != 3 {
		t.Errorf("LoadedCount = %d, want 3", got)
	}
}

// reentrantSink is a log destination that registers a catalog entry
// from inside every write, as a logger feeding a catalog-watching
// sink might, and keeps the lines it was given.
type reentrantSink struct {
	reg   *Registry
	path  string
	mu    sync.Mutex
	lines []string
}

func (s *reentrantSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.reg.Add(fmt.Sprintf("logged-%d", len(s.lines)), s.path); err != nil {
		return 0, err
	}
	s.lines = append(s.lines, string(p))
	return len(p), nil
}

// TestRegistryEvictionLogsOutsideLock pins that eviction lines are
// written after the registry lock is released: a logger that calls
// back into the registry must not deadlock the lookup that evicts, and
// the lines keep their text and order. The lookups run behind a
// deadline so a deadlock fails the test instead of hanging it.
func TestRegistryEvictionLogsOutsideLock(t *testing.T) {
	idx := buildIndex(t)
	dir := t.TempDir()
	sink := &reentrantSink{path: writeIndex(t, idx, dir, "spare.fidx")}
	r := New(WithMaxLoaded(1), WithLogger(log.New(sink, "", 0)))
	sink.reg = r
	names := []string{"a", "b", "c"}
	for _, name := range names {
		if err := r.Add(name, writeIndex(t, idx, dir, name+".fidx")); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		for _, name := range names {
			if _, err := r.Lookup(name); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("lookups did not finish: the eviction logger ran under the registry lock")
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	want := []string{
		"registry: evicted \"a\" (LRU, max 1 resident)\n",
		"registry: evicted \"b\" (LRU, max 1 resident)\n",
	}
	if !slices.Equal(sink.lines, want) {
		t.Errorf("logged %q, want %q", sink.lines, want)
	}
	states := map[string]string{}
	for _, info := range r.List() {
		states[info.Name] = info.State
	}
	if states["logged-0"] != StateAvailable || states["logged-1"] != StateAvailable || states["c"] != StateLoaded {
		t.Errorf("states after the logged adds = %v", states)
	}
}

func TestRegistryPinnedEntriesSurviveEviction(t *testing.T) {
	idx := buildIndex(t)
	dir := t.TempDir()
	r := New(WithMaxLoaded(1), WithLogger(quietLogger()))
	if err := r.AddIndex("pinned", idx); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if err := r.Add(name, writeIndex(t, idx, dir, name+".fidx")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Lookup("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Lookup("b"); err != nil {
		t.Fatal(err)
	}
	// a was evicted (bound 1 file-backed resident), pinned never is.
	if got, err := r.Lookup("pinned"); err != nil || got != idx {
		t.Fatalf("pinned Lookup = %v, %v", got, err)
	}
	var fileResident int
	for _, info := range r.List() {
		if info.Name == "pinned" {
			if info.State != StateLoaded || !info.Pinned {
				t.Errorf("pinned info = %+v", info)
			}
			continue
		}
		if info.State == StateLoaded {
			fileResident++
		}
	}
	if fileResident != 1 {
		t.Errorf("file-backed resident entries = %d, want 1", fileResident)
	}
	if err := r.Reload("pinned"); !errors.Is(err, ErrNoPath) {
		t.Errorf("pinned Reload error = %v, want ErrNoPath", err)
	}
}

func TestRegistryReloadKeepsServingOnCorruptFile(t *testing.T) {
	idxA := buildIndex(t, fairindex.WithHeight(3), fairindex.WithSeed(1))
	idxB := buildIndex(t, fairindex.WithHeight(5), fairindex.WithSeed(2))
	if idxA.NumRegions() == idxB.NumRegions() {
		t.Fatal("want distinguishable generations")
	}
	dir := t.TempDir()
	path := writeIndex(t, idxA, dir, "la.fidx")
	r := New(WithLogger(quietLogger()))
	if err := r.Add("la", path); err != nil {
		t.Fatal(err)
	}
	got, err := r.Lookup("la")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRegions() != idxA.NumRegions() {
		t.Fatalf("initial generation has %d regions", got.NumRegions())
	}

	// Corrupt reload: error surfaces, old index keeps serving, the
	// failure is visible in the listing.
	if err := os.WriteFile(path, []byte("corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.Reload("la"); err == nil {
		t.Fatal("expected reload error for corrupt file")
	}
	got, err = r.Lookup("la")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRegions() != idxA.NumRegions() {
		t.Error("failed reload disturbed the served index")
	}
	info := r.List()[0]
	if info.State != StateLoaded || info.LastErr == "" {
		t.Errorf("after failed reload: %+v", info)
	}

	// Healthy reload swaps generations and clears the error.
	writeIndex(t, idxB, dir, "la.fidx")
	if err := r.Reload("la"); err != nil {
		t.Fatal(err)
	}
	got, _ = r.Lookup("la")
	if got.NumRegions() != idxB.NumRegions() {
		t.Errorf("post-reload generation has %d regions, want %d", got.NumRegions(), idxB.NumRegions())
	}
	info = r.List()[0]
	if info.LastErr != "" || info.Reloads != 1 {
		t.Errorf("after healthy reload: %+v", info)
	}

	if err := r.Reload("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Reload(missing) error = %v, want ErrNotFound", err)
	}
}

func TestRegistryLazyLoadFailureIsReported(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.fidx")
	if err := os.WriteFile(bad, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := New(WithLogger(quietLogger()))
	if err := r.Add("bad", bad); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Lookup("bad"); err == nil {
		t.Fatal("expected lazy-load error for corrupt file")
	}
	info := r.List()[0]
	if info.State != StateFailed || info.LastErr == "" {
		t.Errorf("info after failed lazy load = %+v", info)
	}
}

func TestRegistryRescan(t *testing.T) {
	idx := buildIndex(t)
	dir := t.TempDir()
	writeIndex(t, idx, dir, "a.fidx")
	writeIndex(t, idx, dir, "b.fidx")
	// Non-artifacts are ignored.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Names(); !equalStrings(got, []string{"a", "b"}) {
		t.Fatalf("Names after Open = %v", got)
	}
	if _, err := r.Lookup("a"); err != nil {
		t.Fatal(err)
	}

	// A new file appears, one disappears; rescan tracks both while
	// keeping the loaded state of surviving entries.
	writeIndex(t, idx, dir, "c.fidx")
	if err := os.Remove(filepath.Join(dir, "b.fidx")); err != nil {
		t.Fatal(err)
	}
	if err := r.Rescan(); err != nil {
		t.Fatal(err)
	}
	if got := r.Names(); !equalStrings(got, []string{"a", "c"}) {
		t.Fatalf("Names after rescan = %v", got)
	}
	for _, info := range r.List() {
		switch info.Name {
		case "a":
			if info.State != StateLoaded {
				t.Errorf("entry a lost its loaded state: %+v", info)
			}
		case "c":
			if info.State != StateAvailable {
				t.Errorf("entry c = %+v", info)
			}
		}
	}

	// Explicit entries survive rescans even outside the directory.
	other := writeIndex(t, idx, t.TempDir(), "x.fidx")
	if err := r.Add("explicit", other); err != nil {
		t.Fatal(err)
	}
	if err := r.Rescan(); err != nil {
		t.Fatal(err)
	}
	if got := r.Names(); !equalStrings(got, []string{"a", "c", "explicit"}) {
		t.Fatalf("Names after second rescan = %v", got)
	}
}

func TestRegistryReloadLoaded(t *testing.T) {
	idxA := buildIndex(t, fairindex.WithHeight(3), fairindex.WithSeed(1))
	idxB := buildIndex(t, fairindex.WithHeight(5), fairindex.WithSeed(2))
	dir := t.TempDir()
	writeIndex(t, idxA, dir, "a.fidx")
	writeIndex(t, idxA, dir, "b.fidx")
	r, err := Open(dir, WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Lookup("a"); err != nil {
		t.Fatal(err)
	}
	// b stays unloaded; rewriting both files and reloading must only
	// touch the resident entry.
	writeIndex(t, idxB, dir, "a.fidx")
	writeIndex(t, idxB, dir, "b.fidx")
	if err := r.ReloadLoaded(); err != nil {
		t.Fatal(err)
	}
	got, _ := r.Lookup("a")
	if got.NumRegions() != idxB.NumRegions() {
		t.Errorf("resident entry not reloaded: %d regions", got.NumRegions())
	}
	for _, info := range r.List() {
		if info.Name == "b" && info.State != StateAvailable {
			t.Errorf("unloaded entry was eagerly loaded: %+v", info)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRegistryConcurrentLookupEvictReload is the registry's central
// -race proof: many reader goroutines resolve entries through the
// lock-free hot path while other goroutines force LRU evictions (by
// touching entries round-robin over a bound smaller than the catalog),
// hot-reload an entry between two generations, and rescan the
// directory. Every lookup must return a complete, internally
// consistent Index from one of the two generations.
func TestRegistryConcurrentLookupEvictReload(t *testing.T) {
	idxA := buildIndex(t, fairindex.WithHeight(3), fairindex.WithSeed(1))
	idxB := buildIndex(t, fairindex.WithHeight(5), fairindex.WithSeed(2))
	regionsA, regionsB := idxA.NumRegions(), idxB.NumRegions()
	if regionsA == regionsB {
		t.Fatal("want distinguishable generations")
	}
	dir := t.TempDir()
	names := []string{"a", "b", "c", "d"}
	for _, name := range names {
		writeIndex(t, idxA, dir, name+".fidx")
	}
	r, err := Open(dir, WithMaxLoaded(2), WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}

	const readers = 8
	const iters = 200
	var wg sync.WaitGroup
	var failures atomic.Int64
	fail := func(format string, args ...any) {
		failures.Add(1)
		t.Logf(format, args...)
	}

	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := names[(w+i)%len(names)]
				idx, err := r.Lookup(name)
				if err != nil {
					fail("reader %d: Lookup(%q): %v", w, name, err)
					return
				}
				n := idx.NumRegions()
				if n != regionsA && n != regionsB {
					fail("reader %d: %q has %d regions, matching neither generation", w, name, n)
					return
				}
				// Drive a real query through the resolved artifact: a
				// torn index would crash or return garbage here.
				if region, err := idx.Locate(34.05, -118.25); err != nil || region < 0 || region >= n {
					fail("reader %d: Locate on %q = %d, %v", w, name, region, err)
					return
				}
			}
		}(w)
	}

	// Reloader: flip entry "a" between generations. Concurrent lazy
	// loads (after an eviction) read the file at arbitrary moments, so
	// the rewrite must be atomic — write-then-rename, the same
	// discipline a production artifact store needs. (No t.Fatal off
	// the test goroutine: failures go through fail.)
	blobA, errA := idxA.MarshalBinary()
	blobB, errB := idxB.MarshalBinary()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			blob := blobA
			if i%2 == 0 {
				blob = blobB
			}
			tmp := filepath.Join(dir, "a.fidx.tmp")
			if err := os.WriteFile(tmp, blob, 0o644); err != nil {
				fail("rewrite: %v", err)
				return
			}
			if err := os.Rename(tmp, filepath.Join(dir, "a.fidx")); err != nil {
				fail("rename: %v", err)
				return
			}
			if err := r.Reload("a"); err != nil {
				fail("reload: %v", err)
				return
			}
		}
	}()

	// Rescanner: keep republishing the catalog snapshot.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if err := r.Rescan(); err != nil {
				fail("rescan: %v", err)
				return
			}
		}
	}()

	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d concurrent failures (see log)", n)
	}
	// The residency bound holds once the dust settles (transient
	// overshoot during racing loads is allowed, steady state is not).
	if _, err := r.Lookup("a"); err != nil {
		t.Fatal(err)
	}
	if got := r.LoadedCount(); got > 2+1 { // +1: a racing load may finish after its eviction check
		t.Errorf("LoadedCount = %d, want <= 3", got)
	}
}

// TestRegistryConcurrentLazyLoadSingleflight: racing first lookups of
// the same entry must resolve to one loaded artifact, not N.
func TestRegistryConcurrentLazyLoad(t *testing.T) {
	idx := buildIndex(t)
	dir := t.TempDir()
	r := New(WithLogger(quietLogger()))
	if err := r.Add("la", writeIndex(t, idx, dir, "la.fidx")); err != nil {
		t.Fatal(err)
	}
	const n = 16
	got := make([]*fairindex.Index, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = r.Lookup("la")
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if got[i] == nil || got[i] != got[0] {
			t.Fatalf("lookup %d returned %p, want shared %p", i, got[i], got[0])
		}
	}
}

// TestRegistryEvictionSparesFailedEntries: an entry whose backing
// file went corrupt after a successful load must keep its last good
// generation even under LRU pressure — evicting it would trade a
// serving index for a file known to be unloadable.
func TestRegistryEvictionSparesFailedEntries(t *testing.T) {
	idx := buildIndex(t)
	dir := t.TempDir()
	r := New(WithMaxLoaded(1), WithLogger(quietLogger()))
	pathA := writeIndex(t, idx, dir, "a.fidx")
	for _, name := range []string{"a", "b", "c"} {
		if err := r.Add(name, writeIndex(t, idx, dir, name+".fidx")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Lookup("a"); err != nil {
		t.Fatal(err)
	}
	// a's file goes corrupt; the failed reload latches the error but
	// keeps the old generation serving.
	if err := os.WriteFile(pathA, []byte("corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.Reload("a"); err == nil {
		t.Fatal("expected reload error")
	}
	// LRU pressure from the other entries must not evict a.
	if _, err := r.Lookup("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Lookup("c"); err != nil {
		t.Fatal(err)
	}
	got, err := r.Lookup("a")
	if err != nil {
		t.Fatalf("failed-reload entry was evicted and re-read its corrupt file: %v", err)
	}
	if got.NumRegions() != idx.NumRegions() {
		t.Error("failed-reload entry lost its last good generation")
	}
}

// TestRegistryInfoFields pins the listing surface /v1/indexes is
// built from.
func TestRegistryInfoFields(t *testing.T) {
	idx := buildIndex(t)
	dir := t.TempDir()
	path := writeIndex(t, idx, dir, "la.fidx")
	r := New(WithMaxLoaded(4), WithLogger(quietLogger()))
	if err := r.Add("la", path); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Lookup("la"); err != nil {
		t.Fatal(err)
	}
	info := r.List()[0]
	if info.Name != "la" || info.Path != path || info.Pinned {
		t.Errorf("identity fields: %+v", info)
	}
	if info.CodecVersion != idx.CodecVersion() || info.Regions != idx.NumRegions() {
		t.Errorf("artifact fields: %+v", info)
	}
	if info.Dataset != idx.DatasetName() || info.Method != idx.Method().String() {
		t.Errorf("metadata fields: %+v", info)
	}
	if len(info.Tasks) == 0 {
		t.Error("tasks missing")
	}
	if r.MaxLoaded() != 4 {
		t.Errorf("MaxLoaded = %d", r.MaxLoaded())
	}
	if r.Dir() != "" {
		t.Errorf("Dir = %q", r.Dir())
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
	if _, ok := r.Info("nope"); ok {
		t.Error("Info(nope) = ok")
	}
}

// appendCity builds a 300-record index plus 40 append records that
// share its schema and geography.
func appendCity(t *testing.T) (*fairindex.Index, []fairindex.Record) {
	t.Helper()
	spec := dataset.LA()
	spec.NumRecords = 340
	all, err := dataset.Generate(spec, geo.MustGrid(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	build := &dataset.Dataset{
		Name: all.Name, Grid: all.Grid, Box: all.Box,
		FeatureNames: all.FeatureNames, TaskNames: all.TaskNames,
		Records: all.Records[:300],
	}
	idx, err := fairindex.Build(build, fairindex.WithHeight(3), fairindex.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	return idx, all.Records[300:]
}

// TestRegistryAppendAndDriftHook covers the maintenance control
// plane: Append folds through the registry, the armed threshold flips
// the rebuild flag, the SetOnDrift hook fires exactly once per
// loaded artifact generation, and Info surfaces the live counters.
func TestRegistryAppendAndDriftHook(t *testing.T) {
	idx, extra := appendCity(t)
	dir := t.TempDir()
	path := writeIndex(t, idx, dir, "la.fidx")

	var fired atomic.Int32
	r := New(WithLogger(quietLogger()),
		WithDriftThresholds(map[string]float64{fairindex.MetricENCE: 1e-12}))
	r.SetOnDrift(func(name string) {
		if name != "la" {
			t.Errorf("hook fired with name=%q", name)
		}
		fired.Add(1)
	})
	if err := r.Add("la", path); err != nil {
		t.Fatal(err)
	}

	res, err := r.Append("la", extra[:20])
	if err != nil {
		t.Fatal(err)
	}
	if res.Appended != 20 || res.Drift <= 0 {
		t.Fatalf("append result %+v", res)
	}
	if !res.RebuildRecommended {
		t.Fatal("drift above the armed threshold did not recommend a rebuild")
	}
	if fired.Load() != 1 {
		t.Fatalf("hook fired %d times after first crossing, want 1", fired.Load())
	}
	// Further crossings in the same artifact generation stay quiet.
	if _, err := r.Append("la", extra[20:]); err != nil {
		t.Fatal(err)
	}
	if fired.Load() != 1 {
		t.Fatalf("hook fired %d times after second append, want still 1", fired.Load())
	}

	info, ok := r.Info("la")
	if !ok {
		t.Fatal("Info missing")
	}
	if info.Appended != 40 || info.Drift <= 0 || !info.RebuildRecommended {
		t.Errorf("Info = appended %d drift %v rebuild %v", info.Appended, info.Drift, info.RebuildRecommended)
	}

	// A reload starts a new generation from the artifact (no folds):
	// counters reset and the hook may fire again.
	if err := r.Reload("la"); err != nil {
		t.Fatal(err)
	}
	info, _ = r.Info("la")
	if info.Appended != 0 || info.RebuildRecommended {
		t.Errorf("after reload: appended %d rebuild %v, want 0/false", info.Appended, info.RebuildRecommended)
	}
	if _, err := r.Append("la", extra); err != nil {
		t.Fatal(err)
	}
	if fired.Load() != 2 {
		t.Errorf("hook fired %d times after post-reload crossing, want 2", fired.Load())
	}

	if _, err := r.Append("nope", extra); !errors.Is(err, ErrNotFound) {
		t.Errorf("append to unknown entry = %v, want ErrNotFound", err)
	}
}

// TestRegistryAppendThresholdArmsOnEveryInstall pins that the
// registry-level threshold is applied at each install point, AddIndex
// included.
func TestRegistryAppendThresholdArmsOnEveryInstall(t *testing.T) {
	idx, _ := appendCity(t)
	r := New(WithLogger(quietLogger()), WithDriftThresholds(map[string]float64{fairindex.MetricENCE: 0.125}))
	if err := r.AddIndex("mem", idx); err != nil {
		t.Fatal(err)
	}
	got, err := r.Lookup("mem")
	if err != nil {
		t.Fatal(err)
	}
	if got.DriftThresholds()[fairindex.MetricENCE] != 0.125 {
		t.Errorf("DriftThresholds = %v, want ence 0.125", got.DriftThresholds())
	}
}

// TestRegistrySwapNilPreservesDiagnostics pins the nil-swap
// semantics: an unload is bookkeeping, not a new generation — it
// must neither count as a reload nor erase the diagnostic of a
// preceding load failure, while a non-nil swap does both.
func TestRegistrySwapNilPreservesDiagnostics(t *testing.T) {
	idx := buildIndex(t)
	dir := t.TempDir()
	path := writeIndex(t, idx, dir, "la.fidx")
	r := New(WithLogger(quietLogger()))
	if err := r.Add("la", path); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Lookup("la"); err != nil {
		t.Fatal(err)
	}
	// Corrupt the backing file and fail a reload so lastErr is set.
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.Reload("la"); err == nil {
		t.Fatal("reload of corrupt file succeeded")
	}
	before, _ := r.Info("la")
	if before.LastErr == "" {
		t.Fatal("corrupt reload left no diagnostic")
	}

	old, err := r.Swap("la", nil)
	if err != nil {
		t.Fatal(err)
	}
	if old == nil {
		t.Fatal("nil swap returned no previous index")
	}
	info, _ := r.Info("la")
	if info.State != StateAvailable && info.State != StateFailed {
		t.Errorf("state after unload: %q", info.State)
	}
	if info.LastErr != before.LastErr {
		t.Errorf("unload erased lastErr: %q -> %q", before.LastErr, info.LastErr)
	}
	if info.Reloads != before.Reloads {
		t.Errorf("unload counted a reload: %d -> %d", before.Reloads, info.Reloads)
	}

	// A non-nil swap is a real generation: reload counted, error
	// cleared.
	if _, err := r.Swap("la", idx); err != nil {
		t.Fatal(err)
	}
	info, _ = r.Info("la")
	if info.Reloads != before.Reloads+1 || info.LastErr != "" || info.State != StateLoaded {
		t.Errorf("after non-nil swap: %+v", info)
	}
}

// TestRegistryAppendRescanRace stress-tests the drift hook against
// concurrent catalog churn (the Append bugfix: the entry is resolved
// once, so a Rescan between fold and notification can no longer drop
// it). Run with -race; the assertion is that every recommended fold
// produces exactly one notification per generation, crash-free.
func TestRegistryAppendRescanRace(t *testing.T) {
	idx, extra := appendCity(t)
	dir := t.TempDir()
	writeIndex(t, idx, dir, "la.fidx")

	var fired atomic.Int32
	r, err := Open(dir, WithLogger(quietLogger()),
		WithDriftThresholds(map[string]float64{fairindex.MetricENCE: 1e-12}))
	if err != nil {
		t.Fatal(err)
	}
	r.SetOnDrift(func(name string) { fired.Add(1) })

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := r.Rescan(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if _, err := r.Append("la", extra); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	// Exactly one notification: the first fold crosses the threshold
	// and latches the generation; no Rescan ever installs a new one
	// (the file never changes), so no re-arm happens.
	if got := fired.Load(); got != 1 {
		t.Errorf("hook fired %d times under rescan churn, want 1", got)
	}
}
