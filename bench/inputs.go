package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"

	"fairindex"
	"fairindex/internal/dataset"
	"fairindex/internal/geo"
)

// Operation types. Every request belongs to one; latencies and spans
// are kept per type.
const (
	opLocate = iota
	opBatch
	opRange
	opKNN
	opStats
	opAppend
	numOps
)

var opNames = [numOps]string{"locate", "locate_batch", "range", "knn", "stats", "append"}

// routedOps are the operation types the routed workload sends.
var routedOps = []int{opLocate, opBatch, opStats}

// Request-table sizes. Table entries are drawn from the Zipf point
// stream, so hot points repeat inside a table and a uniform pick over
// the table reproduces the skew.
const (
	locateTable = 8192
	knnTable    = 2048
	rangeTable  = 512
	statsTable  = 512
	batchTable  = 64
	batchPoints = 1000
	appendChunk = 100
	seqLen      = 1 << 16
	knnK        = 8
	gridSide    = 64
	zipfPoints  = 1.1
	zipfNames   = 1.2
)

// request is one distinct request of a workload: what is sent, how the
// reply is checked, and the decoded inputs the kernel replay reuses.
type request struct {
	op     int
	method string
	target string // path and query, relative to the base URL
	body   []byte
	// want is the exact expected reply body; when nil, check verifies
	// the reply instead (bodies that change as appends land).
	want  []byte
	check func(body []byte) error

	index      string // registry entry the request names ("" = default)
	lat, lon   float64
	lats, lons []float64
	rect       fairindex.BBox
	recs       []fairindex.Record
}

// newCity generates the synthetic city every workload is built from:
// dataset.Scaled(LA, n) on a 64×64 grid. It does not depend on the
// benchmark seed, so the built indexes (and ence, accuracy and
// artifact_bytes) repeat exactly from run to run; the seed only shapes
// the traffic.
func newCity(n int) (*dataset.Dataset, error) {
	return dataset.Generate(dataset.Scaled(dataset.LA(), n), geo.MustGrid(gridSide, gridSide))
}

// newAppendPool generates n fresh records inside the LA box from a
// second, seed-dependent city, for the append traffic.
func newAppendPool(n int, seed int64) ([]fairindex.Record, error) {
	spec := dataset.LA()
	spec.Seed += 7919 * (seed + 1)
	ds, err := dataset.Generate(dataset.Scaled(spec, n), geo.MustGrid(gridSide, gridSide))
	if err != nil {
		return nil, err
	}
	return ds.Records, nil
}

// gen draws workload inputs from one seeded stream.
type gen struct {
	rng  *rand.Rand
	recs []dataset.Record
	perm []int
	zipf *rand.Zipf
	box  fairindex.BBox
}

// newGen seeds a generator; salt separates the streams of different
// workloads that share a seed.
func newGen(seed, salt int64, city *dataset.Dataset) *gen {
	rng := rand.New(rand.NewSource(seed*1_000_003 + salt))
	perm := rng.Perm(len(city.Records))
	return &gen{
		rng:  rng,
		recs: city.Records,
		perm: perm,
		zipf: rand.NewZipf(rng, zipfPoints, 1, uint64(len(perm)-1)),
		box:  city.Box,
	}
}

// point returns the location of a Zipf-popular record: a seeded
// permutation decides which records are hot.
func (g *gen) point() (lat, lon float64) {
	r := &g.recs[g.perm[g.zipf.Uint64()]]
	return r.Lat, r.Lon
}

// window returns a rectangle covering 10–50% of the box per side.
func (g *gen) window() fairindex.BBox {
	latSpan := g.box.MaxLat - g.box.MinLat
	lonSpan := g.box.MaxLon - g.box.MinLon
	h := latSpan * (0.1 + 0.4*g.rng.Float64())
	w := lonSpan * (0.1 + 0.4*g.rng.Float64())
	minLat := g.box.MinLat + (latSpan-h)*g.rng.Float64()
	minLon := g.box.MinLon + (lonSpan-w)*g.rng.Float64()
	return fairindex.BBox{MinLat: minLat, MinLon: minLon, MaxLat: minLat + h, MaxLon: minLon + w}
}

// mix draws the request sequence: an operation type by weight, then a
// uniform entry of that type's table. Clients walk the sequence from
// evenly spaced offsets.
func mix(rng *rand.Rand, weights [numOps]int, byOp [numOps][]int) []int32 {
	total := 0
	for _, w := range weights {
		total += w
	}
	seq := make([]int32, seqLen)
	for i := range seq {
		x := rng.Intn(total)
		op := 0
		for x >= weights[op] {
			x -= weights[op]
			op++
		}
		tab := byOp[op]
		seq[i] = int32(tab[rng.Intn(len(tab))])
	}
	return seq
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Wire bodies, in the field order the server documents.
type rectBody struct {
	MinLat float64 `json:"min_lat"`
	MinLon float64 `json:"min_lon"`
	MaxLat float64 `json:"max_lat"`
	MaxLon float64 `json:"max_lon"`
}

type statsBody struct {
	Task    int      `json:"task"`
	Rect    rectBody `json:"rect"`
	Metrics []string `json:"metrics"`
}

type batchBody struct {
	Lats []float64 `json:"lats"`
	Lons []float64 `json:"lons"`
}

type recordJSON struct {
	ID       string    `json:"id"`
	Lat      float64   `json:"lat"`
	Lon      float64   `json:"lon"`
	Features []float64 `json:"features"`
	Labels   []int     `json:"labels"`
}

type appendBody struct {
	Records []recordJSON `json:"records"`
}

func toRect(b fairindex.BBox) rectBody {
	return rectBody{MinLat: b.MinLat, MinLon: b.MinLon, MaxLat: b.MaxLat, MaxLon: b.MaxLon}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of finite floats always marshal
	}
	return b
}

// prefix is the route prefix of a named index, or of the default one.
func prefix(index string) string {
	if index == "" {
		return "/v1"
	}
	return "/v1/i/" + index
}

func locateReq(index string, lat, lon float64) request {
	return request{op: opLocate, method: http.MethodGet, index: index, lat: lat, lon: lon,
		target: prefix(index) + "/locate?lat=" + fmtFloat(lat) + "&lon=" + fmtFloat(lon)}
}

func batchReq(g *gen) request {
	r := request{op: opBatch, method: http.MethodPost, target: "/v1/locate_batch",
		lats: make([]float64, batchPoints), lons: make([]float64, batchPoints)}
	for i := range r.lats {
		r.lats[i], r.lons[i] = g.point()
	}
	r.body = mustJSON(batchBody{Lats: r.lats, Lons: r.lons})
	return r
}

func rangeReq(rect fairindex.BBox) request {
	return request{op: opRange, method: http.MethodPost, target: "/v1/range", rect: rect, body: mustJSON(toRect(rect))}
}

func knnReq(lat, lon float64) request {
	return request{op: opKNN, method: http.MethodGet, lat: lat, lon: lon,
		target: "/v1/knn?lat=" + fmtFloat(lat) + "&lon=" + fmtFloat(lon) + "&k=" + strconv.Itoa(knnK)}
}

// statsPostReq asks for task 0 over a rectangle with every registered
// fairness metric (an empty metrics list selects all of them).
func statsPostReq(rect fairindex.BBox) request {
	return request{op: opStats, method: http.MethodPost, target: "/v1/stats", rect: rect,
		body: mustJSON(statsBody{Task: 0, Rect: toRect(rect), Metrics: []string{}})}
}

// statsGetReq is the GET form against a named index, legacy shape.
func statsGetReq(index string, rect fairindex.BBox) request {
	return request{op: opStats, method: http.MethodGet, index: index, rect: rect,
		target: prefix(index) + "/stats?task=0&rect=" + fmtFloat(rect.MinLat) + "," + fmtFloat(rect.MinLon) +
			"," + fmtFloat(rect.MaxLat) + "," + fmtFloat(rect.MaxLon)}
}

func appendReq(recs []fairindex.Record) request {
	body := appendBody{Records: make([]recordJSON, len(recs))}
	for i, rec := range recs {
		body.Records[i] = recordJSON{ID: rec.ID, Lat: rec.Lat, Lon: rec.Lon, Features: rec.X, Labels: rec.Labels}
	}
	return request{op: opAppend, method: http.MethodPost, target: "/v1/append", recs: recs, body: mustJSON(body)}
}

// serve answers r in-process through h, the way the oracle computes
// expected bodies at set-up.
func serve(h http.Handler, r *request) (int, []byte) {
	var body *bytes.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	} else {
		body = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(r.method, r.target, body)
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// expectAll fills want for every request from h's in-process answers.
// Every expected answer must be a 200: the workloads contain no
// request that is meant to fail. Requests that already carry a check
// (appends) are skipped: answering them would change the served index.
func expectAll(h http.Handler, reqs []request) error {
	for i := range reqs {
		r := &reqs[i]
		if r.check != nil {
			continue
		}
		code, body := serve(h, r)
		if code != http.StatusOK {
			return fmt.Errorf("set-up: %s %s: status %d: %s", r.method, r.target, code, body)
		}
		r.want = body
	}
	return nil
}

// requestDigest folds a workload's request table and the sequence that
// walks it, which together fix every byte sent, into one value, so
// tests can compare the traffic two seeds produce.
func requestDigest(reqs []request, seq []int32) uint64 {
	h := fnv.New64a()
	for i := range reqs {
		r := &reqs[i]
		h.Write([]byte(r.method))
		h.Write([]byte(r.target))
		h.Write(r.body)
	}
	_ = binary.Write(h, binary.LittleEndian, seq) // a hash's Write never fails
	return h.Sum64()
}
