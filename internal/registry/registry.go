// Package registry serves many fair spatial indexes from one
// process: a named catalog of fairindex.Index artifacts with lazy
// loading, bounded memory and per-entry hot reload. It is the
// multi-tenant layer between the .fidx artifact store (a directory of
// build outputs — one per dataset, partitioning method or fairness
// configuration) and the HTTP serving surface, which resolves every
// request through Lookup.
//
// Concurrency model: the catalog itself is an immutable map snapshot
// behind an atomic pointer, and each entry keeps its Index behind its
// own atomic pointer. The request hot path (Lookup of a loaded entry)
// is therefore lock-free — one atomic snapshot load, one map read,
// one atomic entry load — and mutations (lazy loads, reloads, rescans,
// evictions) build new state off to the side before publishing it
// atomically. Per-entry reloads keep the corrupt-reload-keeps-serving
// invariant: a failed load records the error and leaves the old Index
// in place, so readers never observe a half-loaded artifact.
//
// Memory is bounded with an LRU cap (WithMaxLoaded): every Lookup
// stamps the entry with a logical clock tick, and when a load pushes
// the number of resident indexes over the cap the least-recently-used
// clean file-backed entries are unloaded back to the "available"
// state — they reload lazily on next use. Entries holding appends or
// a failed reload are not clean: their file is not what they serve.
// A TinyLFU-style admission gate guards the cap: every Lookup also
// counts a hit on its entry, the counts are halved once every
// agingPerEntry × catalog-size lookups, and a lazy load at the cap
// becomes resident only if its entry's count is at least the LRU
// victim's. A refused load answers the lookup that made it and evicts
// nothing, so a rarely used index cannot push a popular one out.
// Append, Reload and Swap always admit, evicting to stay within the
// cap. Entries registered directly from memory (AddIndex) have no
// backing file to reload from and are pinned: never evicted, never
// reloaded.
package registry

import (
	"errors"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	fairindex "fairindex"
)

// Registry errors.
var (
	// ErrNotFound reports a name the registry has no entry for.
	ErrNotFound = errors.New("registry: no such index")
	// ErrNoPath reports a reload of an entry with no backing file.
	ErrNoPath = errors.New("registry: index has no backing file")
	// ErrNoDefault reports a Default lookup on a registry with several
	// entries and no configured default.
	ErrNoDefault = errors.New("registry: no default index configured")
	// ErrDuplicate reports a name registered twice.
	ErrDuplicate = errors.New("registry: index name already registered")
	// ErrBadName reports a name the registry rejects (empty, or
	// containing path separators — names must be routable as a single
	// URL path segment).
	ErrBadName = errors.New("registry: invalid index name")
)

// Ext is the artifact file extension directory scans look for; the
// entry name is the file base without it (la-fair-h8.fidx → la-fair-h8).
const Ext = ".fidx"

// Registry is a concurrent name → Index catalog. Create one with New,
// register entries with Add/AddIndex or a directory scan (WithDir +
// Rescan), and resolve requests with Lookup. All methods are safe for
// concurrent use.
type Registry struct {
	// entries is the published catalog snapshot; mutators copy it,
	// never modify it in place. Readers only Load.
	entries atomic.Pointer[map[string]*Entry]
	// clock is the logical LRU clock; every Lookup ticks it.
	clock atomic.Int64

	// defName is the WithDefault name, fixed at construction ("" = no
	// explicit default), so the hot path reads it without a lock.
	defName string

	// mu serializes catalog mutations (Add, Rescan, eviction). The
	// lock order is Entry.loadMu before Registry.mu; mu is never held
	// while taking an entry lock.
	mu        sync.Mutex
	dir       string
	maxLoaded int // 0 = unlimited
	logger    *log.Logger
	// agedAt is the clock reading the hit counts have been aged up to
	// (guarded by mu; see age).
	agedAt int64

	// driftThresholds (registered metric name → threshold) is merged
	// over the armed set of every index the registry installs, so
	// appended batches can flip its rebuild-recommended flag; onDrift,
	// when set, fires the first time an entry crosses any armed
	// threshold (see Append). It is atomic so a rebuild controller can
	// bind itself (SetOnDrift) after the registry is constructed,
	// concurrently with appends.
	driftThresholds map[string]float64
	onDrift         atomic.Pointer[func(name string)]
}

// Entry is one named index slot: a backing file plus the atomically
// swappable loaded Index (nil while unloaded).
type Entry struct {
	name string
	path string // "" = pinned in-memory entry
	// fromDir marks entries discovered by a directory scan; Rescan
	// removes them again when their file disappears, but never
	// removes explicitly registered entries.
	fromDir bool

	idx      atomic.Pointer[fairindex.Index]
	lastUsed atomic.Int64
	// hits counts this entry's lookups, halved once per aging window;
	// the admission gate compares it with the LRU victim's.
	hits    atomic.Int64
	reloads atomic.Int64
	lastErr atomic.Pointer[string] // most recent load failure, nil after success

	// loadMu serializes load/reload/swap of this entry so two racing
	// lazy loads cannot both read the file. Eviction does not take it
	// (the hot path must never wait behind a file read); instead it
	// refuses to evict entries whose last reload failed, so the last
	// good generation of an entry with a corrupt backing file is
	// never discarded, and entries holding appends, so no
	// acknowledged fold is.
	loadMu sync.Mutex

	// driftNotified latches the one-shot drift hook: it arms again
	// when a fresh artifact generation is installed (load, reload,
	// swap), so a rebuilt index can re-notify.
	driftNotified atomic.Bool
}

// Option configures a Registry.
type Option func(*Registry)

// WithDir sets the artifact directory Rescan scans for *.fidx files.
func WithDir(dir string) Option {
	return func(r *Registry) { r.dir = dir }
}

// WithMaxLoaded bounds how many clean file-backed indexes may be
// resident at once (0 = unlimited). A lazy load at the bound evicts
// the least-recently-used clean entry, unless that entry has been
// looked up more often lately than the loading one: then the load
// only answers its lookup and nothing is evicted. Pinned in-memory
// entries, entries whose last reload failed and entries holding
// appends do not count against the bound and are never evicted. A
// Reload or Swap installs an Index without appends, which makes an
// appended entry count again; like Append, it always admits, evicting
// the least-recently-used clean entries it pushes over the bound.
func WithMaxLoaded(n int) Option {
	return func(r *Registry) {
		if n > 0 {
			r.maxLoaded = n
		}
	}
}

// WithDefault names the entry unnamed (single-index) requests resolve
// to; it need not exist yet (a later Add or Rescan may introduce it).
// Without it, a sole entry is the implicit default.
func WithDefault(name string) Option {
	return func(r *Registry) { r.defName = name }
}

// WithDriftThresholds arms drift monitoring on every index the
// registry serves: each entry maps a registered fairness-metric name
// (e.g. "ence", "stat_parity") to the drift at which Append flips the
// entry's rebuild-recommended flag (surfaced by Info and the serving
// layer). Every installed artifact gets the set merged over its own
// armed thresholds, the registry's value winning per metric. Unknown
// metric names are skipped at install time and logged; non-positive
// and non-finite values are dropped.
func WithDriftThresholds(thresholds map[string]float64) Option {
	return func(r *Registry) {
		for name, t := range thresholds {
			if t > 0 && !math.IsInf(t, 0) {
				if r.driftThresholds == nil {
					r.driftThresholds = make(map[string]float64, len(thresholds))
				}
				r.driftThresholds[name] = t
			}
		}
	}
}

// SetOnDrift installs (or, with nil, removes) the rebuild
// control-plane hook: fn runs with the entry's name the first time
// its appended batches push any armed metric's drift across its
// threshold (once per loaded artifact generation — a reload or swap
// re-arms it). Which metrics crossed is in Append's result and the
// registry's log line. Typical callers
// rebuild the artifact and Reload the entry; a rebuild controller
// binds here around an already-running registry. fn is called
// synchronously from Append without registry locks held, so it may
// call back into the registry. Safe for concurrent use with Append;
// an append in flight may still fire the previous hook.
func (r *Registry) SetOnDrift(fn func(name string)) {
	if fn == nil {
		r.onDrift.Store(nil)
		return
	}
	r.onDrift.Store(&fn)
}

// WithLogger routes load/evict/rescan diagnostics to l.
func WithLogger(l *log.Logger) Option {
	return func(r *Registry) {
		if l != nil {
			r.logger = l
		}
	}
}

// New returns an empty Registry. Call Add/AddIndex to register
// entries, or Rescan to discover them from the configured directory.
func New(opts ...Option) *Registry {
	r := &Registry{logger: log.Default()}
	for _, opt := range opts {
		opt(r)
	}
	empty := map[string]*Entry{}
	r.entries.Store(&empty)
	return r
}

// Open is the one-call constructor for directory serving: a Registry
// over dir, populated by an initial Rescan.
func Open(dir string, opts ...Option) (*Registry, error) {
	r := New(append([]Option{WithDir(dir)}, opts...)...)
	if err := r.Rescan(); err != nil {
		return nil, err
	}
	return r, nil
}

// checkName rejects names that cannot be a single URL path segment.
func checkName(name string) error {
	if name == "" || strings.ContainsAny(name, "/\\") {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	return nil
}

// publish installs a new catalog snapshot; callers hold r.mu.
func (r *Registry) publish(m map[string]*Entry) { r.entries.Store(&m) }

// snapshot returns the current catalog; never nil.
func (r *Registry) snapshot() map[string]*Entry { return *r.entries.Load() }

// Add registers a lazily loaded file-backed entry. The file is not
// read until the first Lookup, so a registry over a large artifact
// store starts instantly.
func (r *Registry) Add(name, path string) error {
	if err := checkName(name); err != nil {
		return err
	}
	if path == "" {
		return fmt.Errorf("registry: %q: empty path", name)
	}
	return r.insert(&Entry{name: name, path: path})
}

// AddIndex registers an already loaded in-memory index. The entry is
// pinned: it has no backing file, is never evicted and cannot be
// reloaded (Swap replaces it instead).
func (r *Registry) AddIndex(name string, idx *fairindex.Index) error {
	if err := checkName(name); err != nil {
		return err
	}
	if idx == nil {
		return fmt.Errorf("registry: %q: nil index", name)
	}
	e := &Entry{name: name}
	r.installed(e, idx)
	e.idx.Store(idx)
	return r.insert(e)
}

// insert publishes a catalog extended by e.
func (r *Registry) insert(e *Entry) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.snapshot()
	if _, dup := old[e.name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicate, e.name)
	}
	next := make(map[string]*Entry, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[e.name] = e
	r.publish(next)
	return nil
}

// DefaultName returns the effective default entry name: the
// configured one, else the sole registered entry, else "". Lock-free
// (it sits on the unnamed-route request path).
func (r *Registry) DefaultName() string {
	if r.defName != "" {
		return r.defName
	}
	m := r.snapshot()
	if len(m) == 1 {
		for name := range m {
			return name
		}
	}
	return ""
}

// Lookup resolves a name to its loaded Index, lazily loading the
// backing file on first use. This is the serving hot path: when the
// entry is resident it takes one atomic snapshot load, one map read,
// the LRU stamp, one atomic hit count and one atomic entry load — no
// locks. A load the admission gate refuses (see WithMaxLoaded) is
// returned all the same; the entry stays available.
func (r *Registry) Lookup(name string) (*fairindex.Index, error) {
	_, idx, err := r.lookupEntry(name, false)
	return idx, err
}

// lookupEntry is Lookup keeping the resolved *Entry: callers that
// need both the Index and its catalog slot (Append's drift-hook
// latch) must resolve the entry exactly once — re-reading the
// snapshot later races with Rescan/eviction, which can hand back a
// different Entry (or none) for the same name. admit makes a lazy
// load resident whatever the admission gate says.
func (r *Registry) lookupEntry(name string, admit bool) (*Entry, *fairindex.Index, error) {
	e, ok := r.snapshot()[name]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	e.lastUsed.Store(r.clock.Add(1))
	e.hits.Add(1)
	if idx := e.idx.Load(); idx != nil {
		return e, idx, nil
	}
	idx, err := r.loadEntry(e, admit)
	return e, idx, err
}

// Default resolves the default entry (see DefaultName).
func (r *Registry) Default() (*fairindex.Index, error) {
	name := r.DefaultName()
	if name == "" {
		return nil, ErrNoDefault
	}
	return r.Lookup(name)
}

// loadEntry is Lookup's slow path: read the backing file, then
// publish the Index if the admission gate (or admit) lets it in. The
// evictions that make room are logged after every lock is released,
// so a slow or re-entrant logger never holds up the catalog.
func (r *Registry) loadEntry(e *Entry, admit bool) (*fairindex.Index, error) {
	e.loadMu.Lock()
	if idx := e.idx.Load(); idx != nil { // raced with another loader
		e.loadMu.Unlock()
		return idx, nil
	}
	idx, err := fairindex.LoadIndex(e.path)
	if err != nil {
		e.setErr(err)
		e.loadMu.Unlock()
		return nil, fmt.Errorf("registry: loading %q: %w", e.name, err)
	}
	r.installed(e, idx)
	e.lastErr.Store(nil)
	_, evicted := r.admit(e, idx, admit)
	e.loadMu.Unlock()
	r.logEvicted(evicted)
	return idx, nil
}

// logEvicted logs the entries admit evicted; callers have released
// every lock, so a slow or re-entrant logger never holds up the
// catalog.
func (r *Registry) logEvicted(evicted []*Entry) {
	for _, v := range evicted {
		r.logger.Printf("registry: evicted %q (LRU, max %d resident)", v.name, r.maxLoaded)
	}
}

func (e *Entry) setErr(err error) {
	msg := err.Error()
	e.lastErr.Store(&msg)
}

// installed prepares a fresh artifact generation for serving: it
// merges the registry-wide drift thresholds over the index's armed
// set (the registry wins per metric) and re-arms the one-shot drift
// hook.
func (r *Registry) installed(e *Entry, idx *fairindex.Index) {
	if len(r.driftThresholds) > 0 {
		armed := idx.DriftThresholds()
		for name, t := range r.driftThresholds {
			// Values were validated positive and finite at option
			// time; an unknown metric name (not registered in this
			// process) is the only remaining failure, worth a log line
			// rather than a panic.
			if _, ok := fairindex.MetricByName(name); !ok {
				r.logger.Printf("registry: %q: cannot arm drift threshold for unknown metric %q (registered: %v)",
					e.name, name, fairindex.Metrics())
				continue
			}
			armed[name] = t
		}
		// Every entry is now a registered name with a valid value.
		_ = idx.SetDriftThresholds(armed)
	}
	e.driftNotified.Store(false)
}

// Append folds a batch of new records into a served index's live
// per-region statistics (see fairindex.Index.AppendBatch — exact
// aggregates, no retraining) and drives the drift control plane: when
// the fold pushes the index's drift across the armed threshold for
// the first time in this artifact generation, the SetOnDrift hook
// fires so a controller can rebuild and Reload the entry.
func (r *Registry) Append(name string, recs []fairindex.Record) (fairindex.AppendResult, error) {
	// Resolve the entry exactly once and thread it through to the
	// notification latch: re-resolving the name after the fold would
	// race with Rescan/eviction, and a notification dropped there
	// means the rebuild never triggers for this generation.
	// An append always admits its entry: a fold into an index the
	// gate refused would be acknowledged and then lost with it.
	e, idx, err := r.lookupEntry(name, true)
	if err != nil {
		return fairindex.AppendResult{}, err
	}
	res, err := idx.AppendBatch(recs)
	if err != nil {
		return fairindex.AppendResult{}, fmt.Errorf("registry: append %q: %w", name, err)
	}
	if res.RebuildRecommended && e.driftNotified.CompareAndSwap(false, true) {
		r.logger.Printf("registry: %q drift crossed an armed threshold (%s) — rebuild recommended",
			name, driftSummary(res, idx.DriftThresholds()))
		if fn := r.onDrift.Load(); fn != nil {
			(*fn)(name)
		}
	}
	return res, nil
}

// driftSummary renders the per-metric drifts that crossed their armed
// thresholds, for the Append log line.
func driftSummary(res fairindex.AppendResult, thresholds map[string]float64) string {
	names := make([]string, 0, len(res.Drifts))
	for name := range res.Drifts {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		// Same inclusive boundary as the recommendation itself: a
		// drift landing exactly on its threshold appears in the log.
		if !fairindex.DriftExceeds(res.Drifts[name], thresholds[name]) {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %.4g ≥ %.4g", name, res.Drifts[name], thresholds[name])
	}
	if b.Len() == 0 {
		// Crossing detected by the index but not reconstructible from
		// the result (e.g. thresholds swapped concurrently).
		fmt.Fprintf(&b, "max ENCE drift %.4g", res.Drift)
	}
	return b.String()
}

// agingPerEntry sets the aging window: the hit counts are halved once
// every agingPerEntry lookups per catalog entry, so they follow
// popularity as it shifts.
const agingPerEntry = 16

// admit publishes idx as e's Index and returns the one it replaced,
// evicting least-recently-used clean entries when e would take the
// registry over its bound; the evicted entries come back in eviction
// order. A lazy load (always false) at the bound is refused instead
// when e has been looked up less often than the LRU victim: then
// nothing changes. An Index with appends, or one installed in a
// pinned entry, does not count against the bound and is published
// as is. Callers hold e.loadMu.
func (r *Registry) admit(e *Entry, idx *fairindex.Index, always bool) (*fairindex.Index, []*Entry) {
	if r.maxLoaded <= 0 || e.path == "" || idx.Appended() > 0 {
		return e.idx.Swap(idx), nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.snapshot()
	r.age(m)
	var resident []*Entry
	for _, v := range m {
		// Entries whose last reload failed are exempt: evicting one
		// would trade its last good generation for a backing file
		// known to be corrupt, silently voiding the
		// corrupt-reload-keeps-serving invariant at the next lookup.
		// Entries holding appends are exempt alike: the backing file
		// does not have the acknowledged folds.
		if cur := v.idx.Load(); v != e && v.path != "" && cur != nil && cur.Appended() == 0 && v.lastErr.Load() == nil {
			resident = append(resident, v)
		}
	}
	over := len(resident) + 1 - r.maxLoaded
	if over <= 0 {
		return e.idx.Swap(idx), nil
	}
	sort.Slice(resident, func(i, j int) bool {
		return resident[i].lastUsed.Load() < resident[j].lastUsed.Load()
	})
	if !always && e.hits.Load() < resident[0].hits.Load() {
		return e.idx.Load(), nil
	}
	evicted := resident[:over]
	for _, v := range evicted {
		v.idx.Store(nil)
	}
	return e.idx.Swap(idx), evicted
}

// age halves every hit count once for each aging window the clock
// has passed since the last call; it runs under r.mu on the miss
// path, so the lookup hot path only ever adds. A count halves by
// subtracting, which keeps hits that land meanwhile.
func (r *Registry) age(m map[string]*Entry) {
	window := int64(agingPerEntry * max(len(m), 1))
	halvings := (r.clock.Load() - r.agedAt) / window
	if halvings == 0 {
		return
	}
	r.agedAt += halvings * window
	shift := min(halvings, 63)
	for _, e := range m {
		h := e.hits.Load()
		e.hits.Add(h>>shift - h)
	}
}

// Reload re-reads an entry's backing file and atomically swaps the
// new Index in. On any error the currently served Index (if any) is
// left untouched — the per-entry corrupt-reload-keeps-serving
// invariant. Pinned in-memory entries return ErrNoPath.
func (r *Registry) Reload(name string) error {
	e, ok := r.snapshot()[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if e.path == "" {
		return fmt.Errorf("%w: %q", ErrNoPath, name)
	}
	e.loadMu.Lock()
	idx, err := fairindex.LoadIndex(e.path)
	if err != nil {
		e.setErr(err)
		e.loadMu.Unlock()
		return fmt.Errorf("registry: reloading %q: %w", name, err)
	}
	r.installed(e, idx)
	e.lastErr.Store(nil)
	e.reloads.Add(1)
	_, evicted := r.admit(e, idx, true)
	e.loadMu.Unlock()
	r.logEvicted(evicted)
	return nil
}

// ReloadLoaded reloads every currently resident file-backed entry.
// Per-entry failures leave that entry serving its old Index; the
// returned error joins them. Unloaded entries are left unloaded —
// they pick up new bytes lazily anyway.
func (r *Registry) ReloadLoaded() error {
	var errs []error
	for _, name := range r.Names() {
		e := r.snapshot()[name]
		if e == nil || e.path == "" || e.idx.Load() == nil {
			continue
		}
		if err := r.Reload(name); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Swap atomically replaces an entry's Index and returns the previous
// one (nil if the entry was unloaded). In-flight requests keep using
// the Index they resolved. Swapping in a non-nil index counts as a
// reload in the entry's stats and clears the last load error.
//
// Swap(name, nil) unloads the entry: the index is dropped (a
// file-backed entry reloads lazily on next use; a pinned one stays
// empty until the next Swap). An unload is bookkeeping, not
// a new generation — it does not count as a reload and it preserves
// lastErr, so the diagnostic from a preceding failed load survives
// into /v1/indexes.
func (r *Registry) Swap(name string, idx *fairindex.Index) (*fairindex.Index, error) {
	e, ok := r.snapshot()[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	e.loadMu.Lock()
	if idx == nil {
		old := e.idx.Swap(nil)
		e.loadMu.Unlock()
		return old, nil
	}
	r.installed(e, idx)
	e.lastErr.Store(nil)
	e.reloads.Add(1)
	old, evicted := r.admit(e, idx, true)
	e.loadMu.Unlock()
	r.logEvicted(evicted)
	return old, nil
}

// Rescan re-lists the configured directory: new *.fidx files become
// available entries (named by file base), and directory-discovered
// entries whose file vanished are dropped from the catalog.
// Explicitly registered and pinned entries always survive. A registry
// without a directory rescans to itself.
func (r *Registry) Rescan() error {
	if r.dir == "" {
		return nil
	}
	names, err := scanDir(r.dir)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.snapshot()
	next := make(map[string]*Entry, len(old)+len(names))
	for k, e := range old {
		if e.fromDir {
			continue // re-added below iff the file still exists
		}
		next[k] = e
	}
	for name, path := range names {
		if prev, ok := old[name]; ok {
			if prev.fromDir {
				next[name] = prev // keep loaded state and LRU stamp
			}
			// An explicit entry shadows a same-named directory file.
			continue
		}
		next[name] = &Entry{name: name, path: path, fromDir: true}
	}
	for k, e := range old {
		if e.fromDir {
			if _, still := next[k]; !still {
				r.logger.Printf("registry: dropped %q (file removed)", k)
			}
		}
	}
	r.publish(next)
	return nil
}

// scanDir lists name → path for every *.fidx file in dir.
func scanDir(dir string) (map[string]string, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	out := make(map[string]string)
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), Ext) {
			continue
		}
		name := strings.TrimSuffix(de.Name(), Ext)
		if name == "" {
			continue
		}
		out[name] = filepath.Join(dir, de.Name())
	}
	return out, nil
}

// Dir returns the configured artifact directory ("" when none).
func (r *Registry) Dir() string { return r.dir }

// MaxLoaded returns the residency bound (0 = unlimited).
func (r *Registry) MaxLoaded() int { return r.maxLoaded }

// Names returns the registered entry names, sorted.
func (r *Registry) Names() []string {
	m := r.snapshot()
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of registered entries.
func (r *Registry) Len() int { return len(r.snapshot()) }

// LoadedCount returns how many entries are currently resident.
func (r *Registry) LoadedCount() int {
	n := 0
	for _, e := range r.snapshot() {
		if e.idx.Load() != nil {
			n++
		}
	}
	return n
}

// Entry load states reported by Info.
const (
	// StateAvailable marks a registered entry whose artifact has not
	// been loaded (never used, or evicted back to disk).
	StateAvailable = "available"
	// StateLoaded marks a resident entry.
	StateLoaded = "loaded"
	// StateFailed marks an entry whose most recent load or reload
	// failed; a previously loaded Index may still be serving.
	StateFailed = "failed"
)

// Info is a point-in-time description of one entry, for listings.
type Info struct {
	Name    string
	Path    string // "" for pinned in-memory entries
	State   string
	Pinned  bool
	Reloads int64
	LastErr string
	// Artifact fields, populated only while loaded.
	CodecVersion int
	Regions      int
	Dataset      string
	Method       string
	Tasks        []int
	// Maintenance fields, populated only while loaded: records folded
	// in by Append since this generation was installed, the maximum
	// per-task ENCE drift, and whether any armed metric crossed its
	// threshold.
	Appended           int
	Drift              float64
	RebuildRecommended bool
	// Drifts holds the live drift of each metric with an armed
	// threshold (nil when nothing is armed).
	Drifts map[string]float64
}

// info snapshots one entry's state.
func (e *Entry) info() Info {
	out := Info{
		Name:    e.name,
		Path:    e.path,
		Pinned:  e.path == "",
		Reloads: e.reloads.Load(),
	}
	if msg := e.lastErr.Load(); msg != nil {
		out.LastErr = *msg
	}
	if idx := e.idx.Load(); idx != nil {
		out.State = StateLoaded
		out.CodecVersion = idx.CodecVersion()
		out.Regions = idx.NumRegions()
		out.Dataset = idx.DatasetName()
		out.Method = idx.Method().String()
		out.Tasks = idx.Tasks()
		out.Appended = idx.Appended()
		// ENCE drift cannot fail: every task slot exists and ENCE
		// needs no region statistics.
		out.Drift, _ = idx.MaxMetricDrift(fairindex.MetricENCE)
		out.RebuildRecommended = idx.RebuildRecommended()
		if armed := idx.DriftThresholds(); len(armed) > 0 {
			out.Drifts = make(map[string]float64, len(armed))
			for name := range armed {
				if d, err := idx.MaxMetricDrift(name); err == nil && !math.IsNaN(d) {
					out.Drifts[name] = d
				}
			}
		}
	} else if out.LastErr != "" {
		out.State = StateFailed
	} else {
		out.State = StateAvailable
	}
	return out
}

// Info describes one entry by name.
func (r *Registry) Info(name string) (Info, bool) {
	e, ok := r.snapshot()[name]
	if !ok {
		return Info{}, false
	}
	return e.info(), true
}

// List describes every entry, sorted by name.
func (r *Registry) List() []Info {
	m := r.snapshot()
	out := make([]Info, 0, len(m))
	for _, e := range m {
		out = append(out, e.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
