// Package server turns fairindex.Index artifacts into an always-on
// HTTP/JSON lookup service: the online half of the build-once /
// query-many split. A build box trains indexes and ships the .fidx
// bytes; this server loads them and answers point→neighborhood,
// batch, scoring, report, range, k-nearest-region and window
// fairness-stats queries under concurrent load.
//
// One process serves many indexes: requests address a specific
// artifact through the /v1/i/{index}/... routes (e.g. a fair and a
// zipcode partitioning of the same city side by side), /v1/indexes
// lists the catalog (including each entry's live calibration drift),
// and /v1/compare runs one locate or window-stats request against
// several named indexes and reports their fairness deltas. POST
// .../append folds new records into a resident index's per-region
// statistics and reports the drift they caused. The unprefixed single-index routes of earlier versions
// (/v1/locate, ...) stay wired to the catalog's default entry.
//
// Concurrency model: an Index is immutable and lock-free for readers,
// and the backing registry resolves a name with one atomic catalog
// load plus one atomic entry load — so every request binds to exactly
// one index generation and no lock is ever taken on the request path.
// Requests in flight during a hot reload finish against the index
// they started with, and no request ever observes a half-swapped
// artifact. Reload (the /v1/reload endpoint, or SIGHUP in
// `fairindexctl serve`) rescans the artifact directory and re-reads every
// resident index off the request path, swapping each entry only after
// its new bytes fully deserialize and validate; per-entry failures
// keep that entry serving its previous index.
package server

import (
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	fairindex "fairindex"
	"fairindex/internal/rebuild"
	"fairindex/internal/registry"
	"fairindex/internal/wire"
)

// DefaultIndexName is the registry entry name New registers its
// pinned index under.
const DefaultIndexName = "default"

// maxCompareIndexes bounds how many indexes one /v1/compare request
// may fan out to.
const maxCompareIndexes = 16

// Server serves fairness-aware spatial indexes over HTTP. Create one
// with New (one in-memory index) or NewMulti (a registry catalog,
// file-backed entries loading lazily), then use it as an
// http.Handler. All methods are safe for concurrent use.
type Server struct {
	reg       *registry.Registry
	mux       *http.ServeMux
	maxBatch  int
	reply     wire.Replier // JSON replies, write failures logged on the standard logger
	started   time.Time
	reloads   atomic.Int64
	rebuilder atomic.Pointer[rebuild.Controller]
}

// Option configures a Server.
type Option func(*Server)

// WithMaxBatch caps request sizes (default wire.DefaultMaxBatch): the
// points of one /v1/locate_batch, the records of one append, the k of
// one kNN query and the regions of one stats or compare window.
func WithMaxBatch(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxBatch = n
		}
	}
}

// SetRebuilder attaches (or, with nil, detaches) a drift-rebuild
// controller: POST .../rebuild kicks it asynchronously and GET
// /v1/indexes reports each entry's rebuild state. Callers build the
// server first and the controller from its Registry(); the caller
// owns the controller's lifecycle (Bind to subscribe it to drift,
// Close on shutdown). Without one, rebuild routes answer 501 and the
// index listing is byte-identical to earlier releases. The pointer is
// atomic, so attaching while requests are in flight is safe.
func (s *Server) SetRebuilder(c *rebuild.Controller) { s.rebuilder.Store(c) }

// newServer applies options and wires the route table.
func newServer(opts ...Option) *Server {
	s := &Server{
		maxBatch: wire.DefaultMaxBatch,
		started:  time.Now(),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.reply = wire.Replier{Logger: log.Default(), Component: "server"}
	geo := &wire.Geometry{Resolve: s.resolveLayout, MaxBatch: s.maxBatch, Logger: log.Default()}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/indexes", s.handleIndexes)
	s.mux.HandleFunc("POST /v1/compare", s.handleCompare)
	s.mux.HandleFunc("POST /v1/reload", s.handleReload)
	s.mux.HandleFunc("POST /v1/i/{index}/reload", s.handleReloadOne)
	s.mux.HandleFunc("POST /v1/rebuild", s.handleRebuild)
	s.mux.HandleFunc("POST /v1/i/{index}/rebuild", s.handleRebuild)
	// Every data route exists twice: unprefixed against the default
	// entry, and under /v1/i/{index}/ against a named one. The handler
	// is shared; resolveIndex picks the entry from the path.
	for _, p := range []string{"/v1", "/v1/i/{index}"} {
		s.mux.HandleFunc("GET "+p+"/locate", geo.Locate)
		s.mux.HandleFunc("POST "+p+"/locate", geo.Locate)
		s.mux.HandleFunc("POST "+p+"/locate_batch", geo.LocateBatch)
		s.mux.HandleFunc("POST "+p+"/score", s.handleScore)
		s.mux.HandleFunc("GET "+p+"/report/{task}", s.handleReport)
		s.mux.HandleFunc("POST "+p+"/range", geo.Range)
		s.mux.HandleFunc("GET "+p+"/knn", geo.KNN)
		s.mux.HandleFunc("POST "+p+"/knn", geo.KNN)
		s.mux.HandleFunc("GET "+p+"/stats", s.handleStats)
		s.mux.HandleFunc("POST "+p+"/stats", s.handleStats)
		s.mux.HandleFunc("POST "+p+"/append", s.handleAppend)
	}
	return s
}

// New returns a Server over one in-memory index, registered as the
// pinned default entry: it has no backing file, so /v1/reload answers
// 409 (swap it with Registry().Swap instead).
func New(idx *fairindex.Index, opts ...Option) *Server {
	s := newServer(opts...)
	s.reg = registry.New(registry.WithDefault(DefaultIndexName))
	if err := s.reg.AddIndex(DefaultIndexName, idx); err != nil {
		panic("server: registering default entry: " + err.Error()) // fresh registry: only a nil idx fails
	}
	return s
}

// NewMulti returns a Server over an externally configured registry:
// the caller chooses the entries, the default and the residency
// bound.
func NewMulti(reg *registry.Registry, opts ...Option) *Server {
	s := newServer(opts...)
	s.reg = reg
	return s
}

// Registry returns the backing index catalog.
func (s *Server) Registry() *registry.Registry { return s.reg }

// Index returns the currently served default index, or nil when the
// catalog has no resolvable default entry.
func (s *Server) Index() *fairindex.Index {
	idx, err := s.reg.Default()
	if err != nil {
		return nil
	}
	return idx
}

// ErrNoReloadPath reports a Reload on a Server with neither an
// artifact directory nor any file-backed entry to re-read.
var ErrNoReloadPath = errors.New("server: no index path configured for reload")

// Reload refreshes the whole catalog: rescan the artifact directory
// (new files become available entries, removed ones are dropped),
// then re-read every resident file-backed entry. Each entry keeps
// serving its old index until its new bytes fully deserialize; on any
// per-entry error that entry is left untouched and the joined error
// is returned.
func (s *Server) Reload() error {
	if err := s.reg.Rescan(); err != nil {
		return err
	}
	if s.reg.Dir() == "" && !s.hasFileBackedEntry() {
		return ErrNoReloadPath
	}
	if err := s.reg.ReloadLoaded(); err != nil {
		return err
	}
	s.reloads.Add(1)
	return nil
}

// hasFileBackedEntry reports whether any entry can be re-read from
// disk.
func (s *Server) hasFileBackedEntry() bool {
	for _, info := range s.reg.List() {
		if info.Path != "" {
			return true
		}
	}
	return false
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, wire.MaxBodyBytes)
	s.mux.ServeHTTP(w, r)
}

// resolveIndex binds a request to one index generation: the {index}
// path segment when present (named route), the catalog default
// otherwise. A non-nil error has already been written to w. On
// success the response carries the bound generation's fingerprint in
// wire.GenerationHeader, so a scatter-gather router can verify every
// fanned-out answer came from the artifact its manifest expects.
func (s *Server) resolveIndex(w http.ResponseWriter, r *http.Request) (*fairindex.Index, bool) {
	name := r.PathValue("index")
	var (
		idx *fairindex.Index
		err error
	)
	if name != "" {
		idx, err = s.reg.Lookup(name)
	} else {
		idx, err = s.reg.Default()
	}
	if err != nil {
		s.writeRegistryError(w, err)
		return nil, false
	}
	s.setGeneration(w, idx)
	return idx, true
}

// resolveLayout is resolveIndex for the shared geometry handlers
// (wire.Geometry): they need only the index's region geometry.
func (s *Server) resolveLayout(w http.ResponseWriter, r *http.Request) (*fairindex.Layout, bool) {
	idx, ok := s.resolveIndex(w, r)
	if !ok {
		return nil, false
	}
	return &idx.Layout, true
}

// setGeneration stamps the bound index's fingerprint on the response.
// Fingerprint errors leave the header absent — a router treats a
// missing token the same as a mismatched one.
func (s *Server) setGeneration(w http.ResponseWriter, idx *fairindex.Index) {
	fp, err := idx.Fingerprint()
	if err != nil {
		log.Printf("server: fingerprinting served index: %v", err)
		return
	}
	wire.SetGeneration(w, fp)
}

// writeRegistryError maps catalog resolution errors onto HTTP
// statuses: an unknown name is 404, a missing default is a 409
// conflict with the server's configuration, and a failing artifact
// load is the server's fault (502: the artifact store handed us bad
// bytes).
func (s *Server) writeRegistryError(w http.ResponseWriter, err error) {
	status := http.StatusBadGateway
	switch {
	case errors.Is(err, registry.ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, registry.ErrNoDefault):
		status = http.StatusConflict
	}
	s.reply.Error(w, status, err)
}

// Server-only wire types; the query endpoints' shapes shared with the
// shard router live in internal/wire. Field names are the API contract
// documented in README §Serving.

type scoreRequest struct {
	Task     int       `json:"task"`
	Lat      float64   `json:"lat"`
	Lon      float64   `json:"lon"`
	Features []float64 `json:"features"`
}

type scoreResponse struct {
	Score  float64 `json:"score"`
	Region int     `json:"region"`
}

type taskDriftJSON struct {
	Task  int        `json:"task"`
	ENCE  wire.Float `json:"ence"`
	Drift wire.Float `json:"drift"`
	// Live value and drift of every monitored fairness metric (ENCE
	// plus each metric with an armed threshold); present only when a
	// metric beyond ENCE is monitored.
	Metrics map[string]wire.Float `json:"metrics,omitempty"`
	Drifts  map[string]wire.Float `json:"drifts,omitempty"`
}

type appendResponse struct {
	Index    string          `json:"index"`
	Appended int             `json:"appended"`
	Total    int             `json:"total"`
	Tasks    []taskDriftJSON `json:"tasks"`
	Drift    wire.Float      `json:"drift"`
	// Drifts is the max per-task drift of every monitored metric;
	// present only when a metric beyond ENCE is monitored.
	Drifts map[string]wire.Float `json:"drifts,omitempty"`
	// RebuildRecommended reports whether the fold pushed any armed
	// metric's drift past its threshold; false whenever no threshold
	// is armed.
	RebuildRecommended bool `json:"rebuild_recommended"`
}

type healthzResponse struct {
	Status    string `json:"status"`
	Dataset   string `json:"dataset,omitempty"`
	Method    string `json:"method,omitempty"`
	Regions   int    `json:"regions,omitempty"`
	Tasks     []int  `json:"tasks,omitempty"`
	Indexes   int    `json:"indexes"`
	Loaded    int    `json:"loaded"`
	Reloads   int64  `json:"reloads"`
	UptimeSec int64  `json:"uptime_sec"`
}

type reloadResponse struct {
	Reloads int64 `json:"reloads"`
	Regions int   `json:"regions,omitempty"`
	Indexes int   `json:"indexes"`
	Loaded  int   `json:"loaded"`
}

type reloadOneResponse struct {
	Index   string `json:"index"`
	Reloads int64  `json:"reloads"`
	Regions int    `json:"regions"`
}

// indexInfoJSON is one /v1/indexes catalog entry; the artifact fields
// (codec_version, regions, ...) are present only while the entry is
// resident.
type indexInfoJSON struct {
	Name         string `json:"name"`
	State        string `json:"state"`
	Default      bool   `json:"default,omitempty"`
	Pinned       bool   `json:"pinned,omitempty"`
	Path         string `json:"path,omitempty"`
	CodecVersion int    `json:"codec_version,omitempty"`
	Regions      int    `json:"regions,omitempty"`
	Dataset      string `json:"dataset,omitempty"`
	Method       string `json:"method,omitempty"`
	Tasks        []int  `json:"tasks,omitempty"`
	Reloads      int64  `json:"reloads,omitempty"`
	// Maintenance surface: records folded in by append since this
	// generation loaded, the max per-task calibration drift those
	// folds produced, and whether it crossed the armed threshold.
	Appended           int     `json:"appended,omitempty"`
	Drift              float64 `json:"drift,omitempty"`
	RebuildRecommended bool    `json:"rebuild_recommended,omitempty"`
	// Drifts is the live drift of every metric with an armed
	// threshold; absent when only the legacy ENCE monitor runs.
	Drifts map[string]wire.Float `json:"drifts,omitempty"`
	Error  string                `json:"error,omitempty"`
	// Rebuild is the entry's rebuild-controller state; present only
	// when a controller is attached (SetRebuilder), so catalogs
	// without one keep the legacy response bytes.
	Rebuild *rebuildStateJSON `json:"rebuild,omitempty"`
}

// rebuildStateJSON is one entry's rebuild lifecycle state: idle /
// building / promoted / refused / failed, plus the evidence behind
// the latest terminal state.
type rebuildStateJSON struct {
	State    string `json:"state"`
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`
	// LastPromoted is the wall time of the most recent promotion
	// (RFC 3339); absent before the first one.
	LastPromoted string `json:"last_promoted,omitempty"`
	// RefusalDeltas maps each metric that blocked the most recent
	// candidate to its worst badness regression over the probe grid.
	RefusalDeltas map[string]wire.Float `json:"refusal_deltas,omitempty"`
	// NextRetry is the scheduled backoff retry after a build failure
	// (RFC 3339); absent when none is pending.
	NextRetry string `json:"next_retry,omitempty"`
}

// rebuildStateOf converts a controller status to the wire form.
func rebuildStateOf(st rebuild.Status) *rebuildStateJSON {
	out := &rebuildStateJSON{
		State:    st.State,
		Attempts: st.Attempts,
		Error:    st.LastErr,
	}
	if !st.LastPromoted.IsZero() {
		out.LastPromoted = st.LastPromoted.UTC().Format(time.RFC3339)
	}
	if !st.NextRetry.IsZero() {
		out.NextRetry = st.NextRetry.UTC().Format(time.RFC3339)
	}
	if len(st.RefusalDeltas) > 0 {
		// Not metricMapJSON: that helper drops ence-only maps for
		// legacy byte-compat, and a refusal is very often ence-only.
		out.RefusalDeltas = make(map[string]wire.Float, len(st.RefusalDeltas))
		for name, v := range st.RefusalDeltas {
			out.RefusalDeltas[name] = wire.Float(v)
		}
	}
	return out
}

// rebuildResponse acknowledges an asynchronous rebuild kick.
type rebuildResponse struct {
	Index string `json:"index"`
	// Started is false when a rebuild for the entry was already in
	// flight — the request coalesced into it instead of queueing.
	Started bool              `json:"started"`
	Rebuild *rebuildStateJSON `json:"rebuild"`
}

type indexesResponse struct {
	Default   string          `json:"default,omitempty"`
	MaxLoaded int             `json:"max_loaded,omitempty"`
	Loaded    int             `json:"loaded"`
	Indexes   []indexInfoJSON `json:"indexes"`
}

// compareRequest fans one request out to several named indexes.
// Exactly one mode: locate (lat+lon) resolves the same point in every
// index; stats (task + rect or regions) aggregates the same window in
// every index and reports fairness deltas against the first-named
// baseline. A rect window is resolved through each index's own
// RangeQuery — the same ground rectangle, each index's own
// neighborhoods — which is the meaningful cross-partitioning
// comparison; an explicit region-id list is applied verbatim to every
// index and only makes sense when the indexes share a partitioning.
type compareRequest struct {
	Indexes []string   `json:"indexes"`
	Lat     *float64   `json:"lat,omitempty"`
	Lon     *float64   `json:"lon,omitempty"`
	Task    *int       `json:"task,omitempty"`
	Regions []int      `json:"regions,omitempty"`
	Rect    *wire.Rect `json:"rect,omitempty"`
	// Metrics optionally names fairness metrics to evaluate in every
	// index and difference against the baseline (stats mode only).
	// Same semantics as wire.StatsRequest.Metrics: absent keeps the legacy
	// shape, an empty list means all registered metrics.
	Metrics []string `json:"metrics,omitempty"`
}

// fairnessDeltaJSON is one index's window-stats delta against the
// compare baseline (index minus baseline; negative ENCE delta = this
// index is better calibrated over the window).
type fairnessDeltaJSON struct {
	ENCE     wire.Float `json:"ence"`
	Miscal   wire.Float `json:"miscal"`
	CalRatio wire.Float `json:"cal_ratio"`
	MeanConf wire.Float `json:"mean_conf"`
	PosRate  wire.Float `json:"pos_rate"`
	// Metrics holds per-metric deltas (index minus baseline) for each
	// requested fairness metric; present only when the request named
	// them.
	Metrics map[string]wire.Float `json:"metrics,omitempty"`
}

type compareEntryJSON struct {
	Name   string              `json:"name"`
	Region *int                `json:"region,omitempty"`
	Stats  *wire.StatsResponse `json:"stats,omitempty"`
	Delta  *fairnessDeltaJSON  `json:"delta,omitempty"`
}

type compareResponse struct {
	Op       string             `json:"op"`
	Baseline string             `json:"baseline,omitempty"`
	Indexes  []compareEntryJSON `json:"indexes"`
}

// neighborhoodJSON is the wire form of one per-neighborhood report
// entry.
type neighborhoodJSON struct {
	Group    int        `json:"group"`
	Count    int        `json:"count"`
	Ratio    wire.Float `json:"ratio"`
	Miscal   wire.Float `json:"miscal"`
	ECE      wire.Float `json:"ece"`
	PosRate  wire.Float `json:"pos_rate"`
	MeanConf wire.Float `json:"mean_conf"`
}

// reportResponse is the wire form of a stored TaskResult.
type reportResponse struct {
	Task             int                `json:"task"`
	TaskName         string             `json:"task_name"`
	ENCE             wire.Float         `json:"ence"`
	ENCETrain        wire.Float         `json:"ence_train"`
	ENCETest         wire.Float         `json:"ence_test"`
	Accuracy         wire.Float         `json:"accuracy"`
	AUC              wire.Float         `json:"auc"`
	TrainMiscal      wire.Float         `json:"train_miscal"`
	TestMiscal       wire.Float         `json:"test_miscal"`
	ECE              wire.Float         `json:"ece"`
	TrainCalRatio    wire.Float         `json:"train_cal_ratio"`
	TestCalRatio     wire.Float         `json:"test_cal_ratio"`
	StatParityGap    wire.Float         `json:"stat_parity_gap"`
	EqualOddsGap     wire.Float         `json:"equal_odds_gap"`
	TopNeighborhoods []neighborhoodJSON `json:"top_neighborhoods"`
	ImportanceNames  []string           `json:"importance_names,omitempty"`
	ImportanceValues []wire.Float       `json:"importance_values,omitempty"`
}

// newReportResponse converts a stored report into its wire form.
func newReportResponse(tr fairindex.TaskResult) reportResponse {
	out := reportResponse{
		Task:          tr.Task,
		TaskName:      tr.TaskName,
		ENCE:          wire.Float(tr.ENCE),
		ENCETrain:     wire.Float(tr.ENCETrain),
		ENCETest:      wire.Float(tr.ENCETest),
		Accuracy:      wire.Float(tr.Accuracy),
		AUC:           wire.Float(tr.AUC),
		TrainMiscal:   wire.Float(tr.TrainMiscal),
		TestMiscal:    wire.Float(tr.TestMiscal),
		ECE:           wire.Float(tr.ECE),
		TrainCalRatio: wire.Float(tr.TrainCalRatio),
		TestCalRatio:  wire.Float(tr.TestCalRatio),
		StatParityGap: wire.Float(tr.StatParityGap),
		EqualOddsGap:  wire.Float(tr.EqualOddsGap),
	}
	for _, nr := range tr.TopNeighborhoods {
		out.TopNeighborhoods = append(out.TopNeighborhoods, neighborhoodJSON{
			Group:    nr.Group,
			Count:    nr.Count,
			Ratio:    wire.Float(nr.Ratio),
			Miscal:   wire.Float(nr.Miscal),
			ECE:      wire.Float(nr.ECE),
			PosRate:  wire.Float(nr.PosRate),
			MeanConf: wire.Float(nr.MeanConf),
		})
	}
	out.ImportanceNames = tr.ImportanceNames
	for _, v := range tr.ImportanceValues {
		out.ImportanceValues = append(out.ImportanceValues, wire.Float(v))
	}
	return out
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthzResponse{
		Status:    "ok",
		Indexes:   s.reg.Len(),
		Loaded:    s.reg.LoadedCount(),
		Reloads:   s.reloads.Load(),
		UptimeSec: int64(time.Since(s.started).Seconds()),
	}
	// The default-entry summary is best effort: a catalog without a
	// default (or whose default fails to load) is still healthy as
	// long as the process answers.
	if idx, err := s.reg.Default(); err == nil {
		resp.Dataset = idx.DatasetName()
		resp.Method = idx.Method().String()
		resp.Regions = idx.NumRegions()
		resp.Tasks = idx.Tasks()
		s.setGeneration(w, idx)
	}
	s.reply.JSON(w, http.StatusOK, resp)
}

func (s *Server) handleIndexes(w http.ResponseWriter, r *http.Request) {
	def := s.reg.DefaultName()
	infos := s.reg.List()
	resp := indexesResponse{
		Default:   def,
		MaxLoaded: s.reg.MaxLoaded(),
		Loaded:    s.reg.LoadedCount(),
		Indexes:   make([]indexInfoJSON, len(infos)),
	}
	for i, info := range infos {
		resp.Indexes[i] = indexInfoJSON{
			Name:         info.Name,
			State:        info.State,
			Default:      info.Name == def,
			Pinned:       info.Pinned,
			Path:         info.Path,
			CodecVersion: info.CodecVersion,
			Regions:      info.Regions,
			Dataset:      info.Dataset,
			Method:       info.Method,
			Tasks:        info.Tasks,
			Reloads:      info.Reloads,
			Error:        info.LastErr,
		}
		resp.Indexes[i].Appended = info.Appended
		resp.Indexes[i].Drift = info.Drift
		resp.Indexes[i].RebuildRecommended = info.RebuildRecommended
		resp.Indexes[i].Drifts = metricMapJSON(info.Drifts)
		if rb := s.rebuilder.Load(); rb != nil {
			resp.Indexes[i].Rebuild = rebuildStateOf(rb.Status(info.Name))
		}
	}
	s.reply.JSON(w, http.StatusOK, resp)
}

// handleRebuild kicks an asynchronous drift rebuild of one entry and
// answers 202 immediately — the build, gate and promotion run in the
// controller; poll GET /v1/indexes for the outcome. Single-flight: a
// kick while a rebuild is running coalesces ("started": false).
func (s *Server) handleRebuild(w http.ResponseWriter, r *http.Request) {
	rb := s.rebuilder.Load()
	if rb == nil {
		s.reply.Error(w, http.StatusNotImplemented, errors.New("no rebuild controller attached"))
		return
	}
	name := r.PathValue("index")
	if name == "" {
		if name = s.reg.DefaultName(); name == "" {
			s.writeRegistryError(w, registry.ErrNoDefault)
			return
		}
	}
	if _, ok := s.reg.Info(name); !ok {
		s.writeRegistryError(w, fmt.Errorf("%w: %q", registry.ErrNotFound, name))
		return
	}
	started := rb.Kick(name)
	s.reply.JSON(w, http.StatusAccepted, rebuildResponse{
		Index:   name,
		Started: started,
		Rebuild: rebuildStateOf(rb.Status(name)),
	})
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	var req scoreRequest
	if err := wire.DecodeJSON(r, &req); err != nil {
		s.reply.Error(w, http.StatusBadRequest, err)
		return
	}
	idx, ok := s.resolveIndex(w, r)
	if !ok {
		return
	}
	// Locate first: it is the only part that can fail on coordinates,
	// so Score below cannot fail for a reason Locate already accepted.
	region, err := idx.Locate(req.Lat, req.Lon)
	if err != nil {
		s.reply.Error(w, http.StatusBadRequest, err)
		return
	}
	rec := fairindex.Record{Lat: req.Lat, Lon: req.Lon, X: req.Features}
	score, err := idx.Score(rec, req.Task)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, fairindex.ErrNoTask) {
			status = http.StatusNotFound
		}
		s.reply.Error(w, status, err)
		return
	}
	s.reply.JSON(w, http.StatusOK, scoreResponse{Score: score, Region: region})
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	task, err := strconv.Atoi(r.PathValue("task"))
	if err != nil {
		s.reply.Error(w, http.StatusBadRequest, fmt.Errorf("task id %q: %v", r.PathValue("task"), err))
		return
	}
	idx, ok := s.resolveIndex(w, r)
	if !ok {
		return
	}
	rep, err := idx.Report(task)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, fairindex.ErrNoTask) {
			status = http.StatusNotFound
		}
		s.reply.Error(w, status, err)
		return
	}
	s.reply.JSON(w, http.StatusOK, newReportResponse(rep))
}

// writeQueryError maps query-engine errors onto HTTP statuses:
// malformed queries are the client's fault, an unknown task is 404
// and a pre-v2 artifact without region stats is a 409 conflict with
// the served index's capabilities.
func (s *Server) writeQueryError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, fairindex.ErrNoTask):
		status = http.StatusNotFound
	case errors.Is(err, fairindex.ErrNoRegionStats):
		status = http.StatusConflict
	}
	s.reply.Error(w, status, err)
}

// handleAppend folds a batch of records into the resolved index's
// live per-region statistics (Index.AppendBatch through the registry,
// so the drift hook can fire) and reports the resulting calibration
// drift. Appends address an index generation by name; the unprefixed
// route targets the catalog default.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	recs, status, err := wire.ParseAppend(r, s.maxBatch)
	if err != nil {
		s.reply.Error(w, status, err)
		return
	}
	name := r.PathValue("index")
	if name == "" {
		if name = s.reg.DefaultName(); name == "" {
			s.writeRegistryError(w, registry.ErrNoDefault)
			return
		}
	}
	res, err := s.reg.Append(name, recs)
	if err != nil {
		if errors.Is(err, registry.ErrNotFound) || errors.Is(err, registry.ErrNoDefault) {
			s.writeRegistryError(w, err)
			return
		}
		s.writeQueryError(w, err)
		return
	}
	resp := appendResponse{
		Index:              name,
		Appended:           res.Appended,
		Total:              res.Total,
		Drift:              wire.Float(res.Drift),
		Drifts:             metricMapJSON(res.Drifts),
		RebuildRecommended: res.RebuildRecommended,
	}
	for _, td := range res.Tasks {
		resp.Tasks = append(resp.Tasks, taskDriftJSON{
			Task: td.Task, ENCE: wire.Float(td.ENCE), Drift: wire.Float(td.Drift),
			Metrics: metricMapJSON(td.Metrics), Drifts: metricMapJSON(td.Drifts),
		})
	}
	s.reply.JSON(w, http.StatusOK, resp)
}

// metricMapJSON converts a per-metric map to the wire form, dropping
// the map entirely when it carries nothing beyond the ENCE view the
// legacy fields already report — so responses from indexes with no
// per-metric monitoring are byte-identical to earlier releases.
func metricMapJSON(m map[string]float64) map[string]wire.Float {
	if len(m) == 0 {
		return nil
	}
	if _, ok := m["ence"]; ok && len(m) == 1 {
		return nil
	}
	out := make(map[string]wire.Float, len(m))
	for name, v := range m {
		out[name] = wire.Float(v)
	}
	return out
}

// windowStats aggregates one resolved window (wire.WindowRegions)
// against one index. It is shared by /v1/stats and /v1/compare, so
// both endpoints produce the same wire shape. metrics selects
// additional fairness metrics per wire.StatsRequest.Metrics semantics:
// nil for the legacy shape, empty for all registered; sums adds each
// region's raw sufficient statistics per wire.StatsRequest.Sums.
func windowStats(idx *fairindex.Index, task int, regions []int, metrics []string, sums bool) (*wire.StatsResponse, error) {
	var (
		ws  fairindex.WindowStats
		err error
	)
	if metrics != nil {
		ws, err = idx.GroupStatsMetrics(task, regions, metrics...)
	} else {
		ws, err = idx.GroupStats(task, regions)
	}
	if err != nil {
		return nil, err
	}
	resp := wire.NewStatsResponse(ws, sums)
	return &resp, nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	req, err := wire.ParseStats(r)
	if err != nil {
		s.reply.Error(w, http.StatusBadRequest, err)
		return
	}
	// One catalog resolution: the rect resolution and the stats
	// aggregation must see the same index generation.
	idx, ok := s.resolveIndex(w, r)
	if !ok {
		return
	}
	regions, status, err := wire.WindowRegions(&idx.Layout, req.Regions, req.Rect, s.maxBatch)
	if err != nil {
		s.reply.Error(w, status, err)
		return
	}
	resp, err := windowStats(idx, req.Task, regions, req.Metrics, req.Sums)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	s.reply.Written(wire.WriteStats(w, *resp))
}

// handleCompare fans one request out to N named indexes — the
// side-by-side workload: how does the same point, or the same ground
// window, resolve under alternative fair partitionings of a city?
func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	var req compareRequest
	if err := wire.DecodeJSON(r, &req); err != nil {
		s.reply.Error(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Indexes) < 2 {
		s.reply.Error(w, http.StatusBadRequest,
			fmt.Errorf("\"indexes\" must name at least 2 indexes, got %d", len(req.Indexes)))
		return
	}
	if len(req.Indexes) > maxCompareIndexes {
		s.reply.Error(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("comparing %d indexes exceeds limit %d", len(req.Indexes), maxCompareIndexes))
		return
	}
	locateMode := req.Lat != nil && req.Lon != nil
	statsMode := req.Task != nil && (req.Regions != nil) != (req.Rect != nil)
	if locateMode == statsMode {
		s.reply.Error(w, http.StatusBadRequest, errors.New(
			"exactly one compare mode: locate (\"lat\"+\"lon\") or stats (\"task\" plus one of \"regions\"/\"rect\")"))
		return
	}
	if locateMode && req.Metrics != nil {
		s.reply.Error(w, http.StatusBadRequest,
			errors.New("\"metrics\" applies to stats mode only"))
		return
	}

	// Bind every index generation up front so one compare response is
	// a consistent snapshot even under concurrent reloads; duplicate
	// names are rejected rather than silently double-counted.
	idxs := make([]*fairindex.Index, len(req.Indexes))
	seen := make(map[string]bool, len(req.Indexes))
	for i, name := range req.Indexes {
		if seen[name] {
			s.reply.Error(w, http.StatusBadRequest, fmt.Errorf("duplicate index %q", name))
			return
		}
		seen[name] = true
		idx, err := s.reg.Lookup(name)
		if err != nil {
			s.writeRegistryError(w, err)
			return
		}
		idxs[i] = idx
	}

	resp := compareResponse{Indexes: make([]compareEntryJSON, len(idxs))}
	if locateMode {
		resp.Op = "locate"
		for i, idx := range idxs {
			region, err := idx.Locate(*req.Lat, *req.Lon)
			if err != nil {
				s.reply.Error(w, http.StatusBadRequest, fmt.Errorf("index %q: %w", req.Indexes[i], err))
				return
			}
			r := region
			resp.Indexes[i] = compareEntryJSON{Name: req.Indexes[i], Region: &r}
		}
		s.reply.JSON(w, http.StatusOK, resp)
		return
	}

	resp.Op = "stats"
	resp.Baseline = req.Indexes[0]
	var base *wire.StatsResponse
	for i, idx := range idxs {
		regions, status, err := wire.WindowRegions(&idx.Layout, req.Regions, req.Rect, s.maxBatch)
		if err != nil {
			s.reply.Error(w, status, fmt.Errorf("index %q: %w", req.Indexes[i], err))
			return
		}
		stats, err := windowStats(idx, *req.Task, regions, req.Metrics, false)
		if err != nil {
			s.writeQueryError(w, fmt.Errorf("index %q: %w", req.Indexes[i], err))
			return
		}
		entry := compareEntryJSON{Name: req.Indexes[i], Stats: stats}
		if i == 0 {
			base = stats
		} else {
			delta := &fairnessDeltaJSON{
				ENCE:     stats.ENCE - base.ENCE,
				Miscal:   stats.Miscal - base.Miscal,
				CalRatio: stats.CalRatio - base.CalRatio,
				MeanConf: stats.MeanConf - base.MeanConf,
				PosRate:  stats.PosRate - base.PosRate,
			}
			if stats.Metrics != nil {
				delta.Metrics = make(map[string]wire.Float, len(stats.Metrics))
				for name, v := range stats.Metrics {
					delta.Metrics[name] = v - base.Metrics[name]
				}
			}
			entry.Delta = delta
		}
		resp.Indexes[i] = entry
	}
	s.reply.JSON(w, http.StatusOK, resp)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if err := s.Reload(); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrNoReloadPath) {
			status = http.StatusConflict
		}
		s.reply.Error(w, status, err)
		return
	}
	resp := reloadResponse{
		Reloads: s.reloads.Load(),
		Indexes: s.reg.Len(),
		Loaded:  s.reg.LoadedCount(),
	}
	if idx := s.Index(); idx != nil {
		resp.Regions = idx.NumRegions()
	}
	s.reply.JSON(w, http.StatusOK, resp)
}

func (s *Server) handleReloadOne(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("index")
	if err := s.reg.Reload(name); err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, registry.ErrNotFound):
			status = http.StatusNotFound
		case errors.Is(err, registry.ErrNoPath):
			status = http.StatusConflict
		}
		s.reply.Error(w, status, err)
		return
	}
	s.reloads.Add(1)
	info, ok := s.reg.Info(name)
	if !ok {
		s.writeRegistryError(w, fmt.Errorf("%w: %q", registry.ErrNotFound, name))
		return
	}
	s.reply.JSON(w, http.StatusOK, reloadOneResponse{
		Index:   name,
		Reloads: info.Reloads,
		Regions: info.Regions,
	})
}
