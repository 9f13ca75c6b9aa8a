// Package wire is the /v1 HTTP/JSON wire layer shared by the index
// server (internal/server) and the shard router (internal/router): the
// request and response types of the query endpoints, the strict body
// decoder, the GET query grammar, the NaN-safe float encoding and the
// JSON reply writers, plus the handlers of the partition-only queries
// (Geometry: locate, locate_batch, range, kNN) and the stats window
// step (WindowRegions), written once over fairindex.Layout. Both sides
// parse, answer and encode through this one package, so a router's
// reply is byte-identical to a whole-index server's by construction —
// there is no second copy to keep in step. Types only one side serves
// (the server's score, compare, catalog and report shapes and its
// append reply; the router's shard listing) stay with that side.
//
// The hot wire crossings are coded by hand, with encoding/json kept as
// the definition of their format: the locate_batch request and reply
// (batch.go), the /v1/stats request and reply, both ways (stats.go) —
// WriteStats writes every stats reply server and router send, and
// DecodeStatsSums reads each shard's sums reply in the router — and
// the /v1/append request (append.go). The readers share one strict
// scanner (scan.go) that converts each number exactly in the pass that
// checks its grammar (number.go). Each falls back to encoding/json on
// any input or reply outside the subset it covers, and a differential
// fuzz target (FuzzLocateBatchDecode, FuzzStatsCodec,
// FuzzStatsRequestDecode, FuzzAppendDecode, and FuzzParseNumber
// against strconv) holds it to encoding/json's bytes, values and error
// texts.
package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"strconv"
	"strings"

	fairindex "fairindex"
)

// GenerationHeader is the response header naming the served artifact's
// generation: the decimal fairindex.Fingerprint of the index a data
// request bound to (for the router, the whole source index its manifest
// describes). The router compares it against the manifest's expected
// shard fingerprint on every per-shard reply; headers, unlike bodies,
// survive identically across every endpoint shape, which is why the
// token rides here.
const GenerationHeader = "Fairindex-Generation"

// DefaultMaxBatch bounds request sizes — points per /v1/locate_batch,
// records per append, k per kNN query, regions per stats window —
// unless a server overrides it.
const DefaultMaxBatch = 1 << 20

// MaxBodyBytes caps request bodies; a full-size batch of float64 pairs
// in JSON stays well under this.
const MaxBodyBytes = 64 << 20

// SetGeneration stamps a generation token on the response.
func SetGeneration(w http.ResponseWriter, gen uint64) {
	w.Header().Set(GenerationHeader, strconv.FormatUint(gen, 10))
}

// Request and response types. Field names and order are the API
// contract documented in README §Serving; the JSON encoder emits
// fields in declaration order, so reordering one changes the bytes.

type LocateRequest struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
}

type LocateResponse struct {
	Region int `json:"region"`
}

type LocateBatchRequest struct {
	Lats []float64 `json:"lats"`
	Lons []float64 `json:"lons"`
}

type LocateBatchResponse struct {
	Regions []int `json:"regions"`
	// Invalid counts points that resolved to the RegionInvalid
	// sentinel; Error carries the joined per-point detail. Both are
	// omitted when every point resolved.
	Invalid int    `json:"invalid,omitempty"`
	Error   string `json:"error,omitempty"`
}

// NewLocateBatchResponse encodes a batch locate's regions and its
// joined per-point error: per-point failures are not a request
// failure, so the reply is a 200 whose sentinels mark the points that
// did not resolve.
func NewLocateBatchResponse(regions []int, err error) LocateBatchResponse {
	resp := LocateBatchResponse{Regions: regions}
	if err != nil {
		resp.Error = err.Error()
		for _, region := range regions {
			if region == fairindex.RegionInvalid {
				resp.Invalid++
			}
		}
	}
	return resp
}

// Rect is the wire form of a geographic query rectangle: the
// /v1/range request body, and the "rect" window of stats and compare.
type Rect struct {
	MinLat float64 `json:"min_lat"`
	MinLon float64 `json:"min_lon"`
	MaxLat float64 `json:"max_lat"`
	MaxLon float64 `json:"max_lon"`
}

// BBox converts the rectangle to the query engine's form.
func (r Rect) BBox() fairindex.BBox {
	return fairindex.BBox{MinLat: r.MinLat, MinLon: r.MinLon, MaxLat: r.MaxLat, MaxLon: r.MaxLon}
}

type RegionOverlap struct {
	Region   int     `json:"region"`
	Cells    int     `json:"cells"`
	Fraction float64 `json:"fraction"`
}

type RangeResponse struct {
	// Regions intersecting the window, ascending region id; empty
	// (not an error) when the window misses the index's bounding box.
	Regions []RegionOverlap `json:"regions"`
	Count   int             `json:"count"`
}

// NewRangeResponse encodes a RangeQuery result.
func NewRangeResponse(ovs []fairindex.RegionOverlap) RangeResponse {
	resp := RangeResponse{Regions: make([]RegionOverlap, len(ovs)), Count: len(ovs)}
	for i, ov := range ovs {
		resp.Regions[i] = RegionOverlap{Region: ov.Region, Cells: ov.Cells, Fraction: ov.Fraction}
	}
	return resp
}

type KNNRequest struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
	K   int     `json:"k"`
	// Squared requests squared centroid distances instead of the
	// default Euclidean ones: the exact (squared distance, id) keys the
	// search selects by, which sqrt can collapse onto equal floats. A
	// client feature; server and router answer it alike.
	Squared bool `json:"squared,omitempty"`
}

type Neighbor struct {
	Region   int      `json:"region"`
	Distance Distance `json:"distance"`
}

// Distance is a kNN centroid distance on the wire. A query point far
// enough outside the grid overflows the (squared) distance to +Inf,
// which a JSON number cannot carry: it travels as null and decodes
// back to +Inf, so a client reads exactly what the index computed.
// Distances are never NaN, which keeps null unambiguous.
type Distance float64

// MarshalJSON implements json.Marshaler.
func (d Distance) MarshalJSON() ([]byte, error) {
	if math.IsInf(float64(d), 1) {
		return []byte("null"), nil
	}
	return AppendFloat(make([]byte, 0, 32), float64(d)), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Distance) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*d = Distance(math.Inf(1))
		return nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	*d = Distance(v)
	return err
}

type KNNResponse struct {
	Neighbors []Neighbor `json:"neighbors"`
	// Squared echoes the request flag so a reader of the stored
	// response knows which space Distance lives in; omitted (legacy
	// bytes) for default Euclidean responses.
	Squared bool `json:"squared,omitempty"`
}

// NewKNNResponse encodes a NearestRegions (or, with squared set,
// NearestRegionsSquared) result.
func NewKNNResponse(nds []fairindex.RegionDistance, squared bool) KNNResponse {
	resp := KNNResponse{Neighbors: make([]Neighbor, len(nds)), Squared: squared}
	for i, nd := range nds {
		resp.Neighbors[i] = Neighbor{Region: nd.Region, Distance: Distance(nd.Distance)}
	}
	return resp
}

// StatsRequest selects the window either as an explicit region list
// (e.g. piped from /v1/range or /v1/knn output) or as a rectangle
// resolved through RangeQuery — exactly one of the two. Metrics
// optionally names registered fairness metrics to evaluate over the
// window: absent keeps the legacy response shape, an empty list
// requests every registered metric, and unknown names are a 400.
type StatsRequest struct {
	Task    int      `json:"task"`
	Regions []int    `json:"regions,omitempty"`
	Rect    *Rect    `json:"rect,omitempty"`
	Metrics []string `json:"metrics,omitempty"`
	// Sums requests each region's raw additive sufficient statistics
	// (sum_score, sum_label) alongside the derived ratios — what a
	// scatter-gather merger needs to reassemble exact window aggregates
	// across shards. Absent keeps the legacy response bytes unchanged.
	Sums bool `json:"sums,omitempty"`
}

type RegionStat struct {
	Region   int   `json:"region"`
	Count    int   `json:"count"`
	MeanConf Float `json:"mean_conf"`
	PosRate  Float `json:"pos_rate"`
	Miscal   Float `json:"miscal"`
	CalRatio Float `json:"cal_ratio"`
	// SumScore and SumLabel are the region's raw additive sufficient
	// statistics, present only when the request set "sums". Always
	// finite, and encoding/json's shortest-round-trip float encoding
	// preserves their exact bits across the wire.
	SumScore *float64 `json:"sum_score,omitempty"`
	SumLabel *float64 `json:"sum_label,omitempty"`
}

type StatsResponse struct {
	Task     int   `json:"task"`
	Count    int   `json:"count"`
	MeanConf Float `json:"mean_conf"`
	PosRate  Float `json:"pos_rate"`
	Miscal   Float `json:"miscal"`
	CalRatio Float `json:"cal_ratio"`
	ENCE     Float `json:"ence"`
	// Metrics holds the requested fairness metrics over the window
	// (metric name → value); present only when the request named them,
	// so legacy response bytes are unchanged.
	Metrics map[string]Float `json:"metrics,omitempty"`
	Regions []RegionStat     `json:"regions"`
	// Partial marks a degraded router response: some shards were
	// unreachable and the aggregates cover only the regions that
	// answered (exactly). Absent on complete responses — and always on
	// a whole-index server's — so a healthy deployment's bytes match.
	Partial bool `json:"partial,omitempty"`
	// FailedShards names the shards a partial response is missing.
	FailedShards []string `json:"failed_shards,omitempty"`
}

// NewStatsResponse encodes a window aggregate; sums adds each region's
// raw sufficient statistics per StatsRequest.Sums.
func NewStatsResponse(ws fairindex.WindowStats, sums bool) StatsResponse {
	resp := StatsResponse{
		Task:     ws.Task,
		Count:    ws.Count,
		MeanConf: Float(ws.MeanConf),
		PosRate:  Float(ws.PosRate),
		Miscal:   Float(ws.Miscal),
		CalRatio: Float(ws.CalRatio),
		ENCE:     Float(ws.ENCE),
		Regions:  make([]RegionStat, len(ws.Regions)),
	}
	if ws.Metrics != nil {
		resp.Metrics = make(map[string]Float, len(ws.Metrics))
		for name, v := range ws.Metrics {
			resp.Metrics[name] = Float(v)
		}
	}
	var raw []float64 // the sums' backing store: one allocation, not two per region
	if sums {
		raw = make([]float64, 2*len(ws.Regions))
	}
	for i, rs := range ws.Regions {
		resp.Regions[i] = RegionStat{
			Region:   rs.Region,
			Count:    rs.Count,
			MeanConf: Float(rs.MeanConf),
			PosRate:  Float(rs.PosRate),
			Miscal:   Float(rs.Miscal),
			CalRatio: Float(rs.CalRatio),
		}
		if sums {
			raw[2*i], raw[2*i+1] = rs.SumScore, rs.SumLabel
			resp.Regions[i].SumScore = &raw[2*i]
			resp.Regions[i].SumLabel = &raw[2*i+1]
		}
	}
	return resp
}

// Error is the body of every non-2xx reply.
type Error struct {
	Error string `json:"error"`
}

// Float is THE wire encoder for every metric value the API emits —
// stats, compare deltas, drift reports, per-region detail and the
// /v1/indexes maintenance fields all route float values through it.
// The fairness-metric contract (fairindex.Metric, docs/METRICS.md)
// reserves NaN as the single "undefined" sentinel — a calibration
// ratio with no positives, an Atkinson index over an empty window, a
// drift against a metric the build never measured — and encoding/json
// rejects non-finite values, so Float marshals NaN (and the
// infinities, which some metrics use for "unboundedly bad") as null.
// Clients therefore read null as "undefined here", never 0. Any new
// endpoint field carrying a metric value must use this type rather
// than float64 so the sentinel convention stays uniform across the
// API.
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) {
	return f.appendJSON(make([]byte, 0, 32)), nil
}

// appendJSON appends f's wire form: null unless finite.
func (f Float) appendJSON(dst []byte) []byte {
	if !f.finite() {
		return append(dst, "null"...)
	}
	return AppendFloat(dst, float64(f))
}

// finite reports whether f is neither NaN nor ±Inf.
func (f Float) finite() bool {
	v := float64(f)
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// WriteJSON writes v as the reply body with the given status; an
// error reply's v is an Error. A non-nil error means the body could
// not be written (typically a client that went away); the status line
// is already out, so it is only worth a log line.
func WriteJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	return json.NewEncoder(w).Encode(v)
}

// Replier writes one component's JSON replies and logs, on Logger, a
// body that could not be written as "<Component>: writing response:
// <err>".
type Replier struct {
	Logger    *log.Logger
	Component string
}

// JSON writes v as the reply body with the given status.
func (r Replier) JSON(w http.ResponseWriter, status int, v any) {
	r.Written(WriteJSON(w, status, v))
}

// Error writes err as a JSON error body with the given status.
func (r Replier) Error(w http.ResponseWriter, status int, err error) {
	r.JSON(w, status, Error{Error: err.Error()})
}

// Written logs err, the result of writing a reply body, if non-nil.
func (r Replier) Written(err error) {
	if err != nil {
		r.Logger.Printf("%s: writing response: %v", r.Component, err)
	}
}

// DecodeJSON strictly decodes a single JSON object request body:
// unknown fields and trailing data are errors.
func DecodeJSON(r *http.Request, v any) error {
	return decodeJSON(r.Body, v)
}

// decodeJSON is DecodeJSON over any reader.
func decodeJSON(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	// A second document (or trailing garbage) is a malformed request.
	if dec.More() {
		return errors.New("invalid JSON body: trailing data")
	}
	return nil
}

// queryFloat parses a required float query parameter.
func queryFloat(r *http.Request, key string) (float64, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return 0, fmt.Errorf("missing query parameter %q", key)
	}
	f, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("query parameter %q: %v", key, err)
	}
	return f, nil
}

// ParseLocate reads a /v1/locate request: ?lat=&lon= on GET, a JSON
// body otherwise. Every error is the client's (a 400).
func ParseLocate(r *http.Request) (LocateRequest, error) {
	var req LocateRequest
	if r.Method != http.MethodGet {
		return req, DecodeJSON(r, &req)
	}
	var err error
	if req.Lat, err = queryFloat(r, "lat"); err != nil {
		return req, err
	}
	req.Lon, err = queryFloat(r, "lon")
	return req, err
}

// ParseKNN reads a /v1/knn request: ?lat=&lon=&k=[&squared=] on GET, a
// JSON body otherwise. Every error is the client's (a 400).
func ParseKNN(r *http.Request) (KNNRequest, error) {
	var req KNNRequest
	if r.Method != http.MethodGet {
		return req, DecodeJSON(r, &req)
	}
	var err error
	if req.Lat, err = queryFloat(r, "lat"); err != nil {
		return req, err
	}
	if req.Lon, err = queryFloat(r, "lon"); err != nil {
		return req, err
	}
	q := r.URL.Query()
	raw := q.Get("k")
	if raw == "" {
		return req, errors.New("missing query parameter \"k\"")
	}
	if req.K, err = strconv.Atoi(raw); err != nil {
		return req, fmt.Errorf("query parameter \"k\": %v", err)
	}
	if raw := q.Get("squared"); raw != "" {
		if req.Squared, err = strconv.ParseBool(raw); err != nil {
			return req, fmt.Errorf("query parameter \"squared\": %v", err)
		}
	}
	return req, nil
}

// ParseStats reads a /v1/stats request and checks that it names
// exactly one window. The GET form is ?task=N, the window as either
// regions=1,2,3 (repeatable: regions=1&regions=2,3 is the list 1,2,3)
// or one rect=minLat,minLon,maxLat,maxLon, optionally
// metrics=ence,stat_parity (metrics= alone, i.e. present but empty,
// selects every registered metric), and optionally sums=true for raw
// per-region sufficient statistics; other methods carry a JSON body.
// Every error is the client's (a 400).
func ParseStats(r *http.Request) (StatsRequest, error) {
	var req StatsRequest
	var err error
	if r.Method == http.MethodGet {
		err = statsFromQuery(r, &req)
	} else {
		req, err = decodeBody(r.Body, scanStatsRequest)
	}
	if err == nil && (req.Regions == nil) == (req.Rect == nil) {
		err = errors.New("exactly one of \"regions\" and \"rect\" must be given")
	}
	return req, err
}

// statsFromQuery parses the GET form of /v1/stats into req.
func statsFromQuery(r *http.Request, req *StatsRequest) error {
	q := r.URL.Query()
	if raw := q.Get("task"); raw != "" {
		task, err := strconv.Atoi(raw)
		if err != nil {
			return fmt.Errorf("query parameter \"task\": %v", err)
		}
		req.Task = task
	}
	// Repeated regions= values fold into one list, as metrics= do.
	for _, raw := range q["regions"] {
		if raw == "" {
			continue
		}
		for _, f := range strings.Split(raw, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return fmt.Errorf("query parameter \"regions\": %v", err)
			}
			req.Regions = append(req.Regions, v)
		}
	}
	if n := len(q["rect"]); n > 1 {
		return fmt.Errorf("query parameter \"rect\" given %d times: want one window", n)
	}
	if raw := q.Get("rect"); raw != "" {
		fields := strings.Split(raw, ",")
		if len(fields) != 4 {
			return errors.New("query parameter \"rect\": want minLat,minLon,maxLat,maxLon")
		}
		var vals [4]float64
		for i, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return fmt.Errorf("query parameter \"rect\": %v", err)
			}
			vals[i] = v
		}
		req.Rect = &Rect{MinLat: vals[0], MinLon: vals[1], MaxLat: vals[2], MaxLon: vals[3]}
	}
	if raw, ok := q["metrics"]; ok {
		req.Metrics = []string{} // present: empty selects all registered
		for _, part := range raw {
			for _, f := range strings.Split(part, ",") {
				if f = strings.TrimSpace(f); f != "" {
					req.Metrics = append(req.Metrics, f)
				}
			}
		}
	}
	if raw := q.Get("sums"); raw != "" {
		v, err := strconv.ParseBool(raw)
		if err != nil {
			return fmt.Errorf("query parameter \"sums\": %v", err)
		}
		req.Sums = v
	}
	return nil
}
