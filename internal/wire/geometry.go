package wire

import (
	"fmt"
	"log"
	"net/http"
	"slices"
	"sync"

	fairindex "fairindex"
)

// Geometry serves the /v1 queries whose answers depend only on the
// partition — locate, locate_batch, range and kNN — over whichever
// fairindex.Layout Resolve binds a request to. The index server mounts
// these handlers over its resolved index's Layout, the shard router
// over its manifest snapshot's; the code between parse and reply is
// this one copy, so both answer with the same kernels, refusals and
// bytes.
//
// Each handler parses the request and checks its size limits first,
// then resolves, then runs the kernel: a malformed or oversized
// request (400 or 413) therefore carries no generation header, and a
// request the kernel refuses (400) carries the bound generation.
type Geometry struct {
	// Resolve binds the request to one Layout and stamps that
	// generation with SetGeneration, or writes its own error reply and
	// returns false.
	Resolve func(http.ResponseWriter, *http.Request) (*fairindex.Layout, bool)
	// MaxBatch caps the points of one locate_batch and the k of one
	// kNN query.
	MaxBatch int
	// Logger records replies that could not be written.
	Logger *log.Logger
}

// regionsPool recycles the per-request locate_batch region buffers:
// batches run up to MaxBatch points, so a fresh result slice per
// request makes the batch hot path a steady GC burden under load.
// Buffers go back after the reply is fully written; LocateBatchInto
// overwrites every element, so a dirty buffer is safe to reuse.
var regionsPool = sync.Pool{New: func() any { return new([]int) }}

// Locate answers GET and POST /v1/locate.
func (g *Geometry) Locate(w http.ResponseWriter, r *http.Request) {
	req, err := ParseLocate(r)
	if err != nil {
		g.reply().Error(w, http.StatusBadRequest, err)
		return
	}
	l, ok := g.Resolve(w, r)
	if !ok {
		return
	}
	region, err := l.Locate(req.Lat, req.Lon)
	if err != nil {
		g.reply().Error(w, http.StatusBadRequest, err)
		return
	}
	g.reply().JSON(w, http.StatusOK, LocateResponse{Region: region})
}

// LocateBatch answers POST /v1/locate_batch. One resolution per
// request: the whole batch resolves against a single Layout even if a
// reload lands mid-request.
func (g *Geometry) LocateBatch(w http.ResponseWriter, r *http.Request) {
	req, status, err := ParseLocateBatch(r, g.MaxBatch)
	if err != nil {
		g.reply().Error(w, status, err)
		return
	}
	l, ok := g.Resolve(w, r)
	if !ok {
		return
	}
	buf := regionsPool.Get().(*[]int)
	defer regionsPool.Put(buf)
	regions := slices.Grow((*buf)[:0], len(req.Lats))[:len(req.Lats)]
	*buf = regions
	err = l.LocateBatchInto(regions, req.Lats, req.Lons)
	g.reply().Written(WriteLocateBatch(w, NewLocateBatchResponse(regions, err)))
}

// Range answers POST /v1/range.
func (g *Geometry) Range(w http.ResponseWriter, r *http.Request) {
	var req Rect
	if err := DecodeJSON(r, &req); err != nil {
		g.reply().Error(w, http.StatusBadRequest, err)
		return
	}
	l, ok := g.Resolve(w, r)
	if !ok {
		return
	}
	overlaps, err := l.RangeQuery(req.BBox())
	if err != nil {
		g.reply().Error(w, http.StatusBadRequest, err)
		return
	}
	g.reply().JSON(w, http.StatusOK, NewRangeResponse(overlaps))
}

// KNN answers GET and POST /v1/knn.
func (g *Geometry) KNN(w http.ResponseWriter, r *http.Request) {
	req, err := ParseKNN(r)
	if err != nil {
		g.reply().Error(w, http.StatusBadRequest, err)
		return
	}
	if req.K > g.MaxBatch {
		g.reply().Error(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("k of %d exceeds limit %d", req.K, g.MaxBatch))
		return
	}
	l, ok := g.Resolve(w, r)
	if !ok {
		return
	}
	nearest := l.NearestRegions
	if req.Squared {
		nearest = l.NearestRegionsSquared
	}
	neighbors, err := nearest(req.Lat, req.Lon, req.K)
	if err != nil {
		g.reply().Error(w, http.StatusBadRequest, err)
		return
	}
	g.reply().JSON(w, http.StatusOK, NewKNNResponse(neighbors, req.Squared))
}

// reply is the geometry handlers' replier.
func (g *Geometry) reply() Replier { return Replier{Logger: g.Logger, Component: "wire"} }

// WindowRegions resolves a stats window against l to its region list:
// a rect through l.RangeRegions, an explicit list as given, then the
// cap of limit regions — after the rect, so a rectangle cannot smuggle
// in a larger window than a list may. A refusal comes with its status:
// 400 for a malformed rect, 413 over the cap. The list itself (ids in
// range, none repeated) is checked later, by the aggregation.
func WindowRegions(l *fairindex.Layout, regions []int, rect *Rect, limit int) ([]int, int, error) {
	if rect != nil {
		var err error
		if regions, err = l.RangeRegions(rect.BBox()); err != nil {
			return nil, http.StatusBadRequest, err
		}
	}
	if len(regions) > limit {
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Errorf("window of %d regions exceeds limit %d", len(regions), limit)
	}
	return regions, 0, nil
}
