package fairindex

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"fairindex/internal/geo"
	"fairindex/internal/partition"
)

// Layout is the region geometry of a partition: the grid and its
// geographic bounding box, the row-major cell→region table, the
// region centroids, and the structures the region queries run on.
// Every query whose answer depends only on the partition lives here —
// Locate, LocateBatch, RangeQuery, NearestRegions — with its exact
// arithmetic and refusals. An Index embeds its Layout; the shard
// router derives one from a manifest's cell table with NewLayout and
// answers those queries without asking a shard.
//
// The query structures:
//
//   - regionRects/regionCells: each region's bounding cell rectangle
//     and cell count. RangeQuery prunes against the bounding rects and,
//     for regions that exactly fill their rect (every KD-tree, quadtree
//     and uniform-grid region does), counts overlap by rectangle
//     intersection alone — no cell scan at all.
//   - knnOrder: the region centroids arranged as an implicit balanced
//     kd-tree (median layout), giving NearestRegions a pruned
//     branch-and-bound search instead of a full centroid scan.
//
// The v2 index codec stores them; every other constructor derives
// them from the table and centroids. A Layout never changes after
// construction and is safe for concurrent use.
type Layout struct {
	grid   geo.Grid
	box    geo.BBox
	mapper geo.Mapper

	cellRegion []int // row-major cell index -> region id (hot path)
	numRegions int
	centroids  [][2]float64

	regionRects []geo.CellRect
	regionCells []int
	knnOrder    []int
}

// NewLayout derives the region geometry of a cell→region table over a
// grid and bounding box. Region ids must be dense from 0, every region
// must own at least one cell, and the box must be mappable. Centroids
// are computed from the table exactly as Build computes them, so the
// Layout of an index's own table answers bit-identically to the index.
func NewLayout(grid Grid, box BBox, cellRegion []int) (*Layout, error) {
	numRegions := 0
	for _, region := range cellRegion {
		numRegions = max(numRegions, region+1)
	}
	part, err := partition.New(grid, numRegions, cellRegion)
	if err != nil {
		return nil, fmt.Errorf("fairindex: layout: %w", err)
	}
	l, err := layoutOf(part, box, part.Centroids())
	if err != nil {
		return nil, fmt.Errorf("fairindex: layout: %w", err)
	}
	l.derive()
	return &l, nil
}

// layoutOf wraps a validated partition and its centroids; the caller
// fills the query structures (derive, or the v2 decoder's readAccel).
func layoutOf(part *partition.Partition, box geo.BBox, centroids [][2]float64) (Layout, error) {
	mapper, err := geo.NewMapper(part.Grid(), box)
	if err != nil {
		return Layout{}, err
	}
	return Layout{
		grid:       part.Grid(),
		box:        box,
		mapper:     mapper,
		cellRegion: part.CellRegions(),
		numRegions: part.NumRegions(),
		centroids:  centroids,
	}, nil
}

// derive computes the query structures from the cell→region table and
// the centroids.
func (l *Layout) derive() {
	l.regionRects, l.regionCells = regionBounds(l.grid, l.cellRegion, l.numRegions)
	l.knnOrder = buildKNNOrder(l.centroids)
}

// NumRegions returns the number of neighborhoods.
func (l *Layout) NumRegions() int { return l.numRegions }

// Grid returns the base grid.
func (l *Layout) Grid() Grid { return l.grid }

// Box returns the geographic bounding box.
func (l *Layout) Box() BBox { return l.box }

// Centroid returns the normalized (row, col) centroid of a region.
func (l *Layout) Centroid(region int) ([2]float64, error) {
	if region < 0 || region >= l.numRegions {
		return [2]float64{}, fmt.Errorf("fairindex: region %d out of range [0,%d)", region, l.numRegions)
	}
	return l.centroids[region], nil
}

// RegionRect returns the bounding rectangle of a region's cells.
func (l *Layout) RegionRect(region int) (CellRect, error) {
	if region < 0 || region >= l.numRegions {
		return CellRect{}, fmt.Errorf("%w: region %d out of range [0,%d)", ErrQuery, region, l.numRegions)
	}
	return l.regionRects[region], nil
}

// RegionCells returns the number of grid cells a region covers.
func (l *Layout) RegionCells(region int) (int, error) {
	if region < 0 || region >= l.numRegions {
		return 0, fmt.Errorf("%w: region %d out of range [0,%d)", ErrQuery, region, l.numRegions)
	}
	return l.regionCells[region], nil
}

// Locate maps a geographic coordinate to its neighborhood id in
// [0, NumRegions). Coordinates on or outside the bounding box clamp
// to the nearest border cell, matching record ingestion; non-finite
// coordinates return RegionInvalid and an error. O(1): one table
// lookup, no tree walk.
func (l *Layout) Locate(lat, lon float64) (int, error) {
	if math.IsNaN(lat) || math.IsInf(lat, 0) || math.IsNaN(lon) || math.IsInf(lon, 0) {
		return RegionInvalid, fmt.Errorf("fairindex: non-finite coordinate (%v, %v)", lat, lon)
	}
	c := l.mapper.CellOf(lat, lon)
	return l.cellRegion[l.grid.Index(c)], nil
}

// Batch sharding thresholds: batches below shardMinBatch points stay
// on the caller's goroutine, and each worker gets at least
// shardMinPoints points so small batches are not drowned in goroutine
// overhead.
const (
	shardMinBatch  = 16384
	shardMinPoints = 4096
)

// LocateBatch maps coordinate slices to neighborhood ids into a fresh
// slice. lats and lons must have equal length.
//
// Unlike looping over Locate, a batch never aborts mid-slice: every
// valid point is resolved, each invalid (non-finite) point yields
// RegionInvalid at its position, and the returned error joins the
// per-point failures (nil when every point resolved). The returned
// slice is complete even when err != nil; only a length mismatch
// returns a nil slice.
//
// Large batches are sharded across GOMAXPROCS worker goroutines —
// results are independent of the sharding, bit-identical to Locate.
func (l *Layout) LocateBatch(lats, lons []float64) ([]int, error) {
	if len(lats) != len(lons) {
		return nil, fmt.Errorf("fairindex: %d latitudes vs %d longitudes", len(lats), len(lons))
	}
	out := make([]int, len(lats))
	return out, l.LocateBatchInto(out, lats, lons)
}

// LocateBatchInto is LocateBatch writing into a caller-provided slice,
// for servers that recycle result buffers on the hot path. dst, lats
// and lons must have equal length; semantics otherwise match
// LocateBatch.
func (l *Layout) LocateBatchInto(dst []int, lats, lons []float64) error {
	if len(lats) != len(lons) {
		return fmt.Errorf("fairindex: %d latitudes vs %d longitudes", len(lats), len(lons))
	}
	if len(dst) != len(lats) {
		return fmt.Errorf("fairindex: destination holds %d regions for %d points", len(dst), len(lats))
	}
	n := len(lats)
	workers := runtime.GOMAXPROCS(0)
	if n >= shardMinBatch && workers > 1 {
		if byPoints := n / shardMinPoints; byPoints < workers {
			workers = byPoints
		}
		return l.locateSharded(dst, lats, lons, workers)
	}
	return l.mapper.LocateRange(dst, l.cellRegion, lats, lons, 0)
}

// locateSharded fans a batch out over contiguous shards, one worker
// goroutine each. The Layout is immutable, so workers share it without
// locking; per-shard errors are joined in shard order.
func (l *Layout) locateSharded(dst []int, lats, lons []float64, workers int) error {
	n := len(lats)
	chunk := (n + workers - 1) / workers
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = l.mapper.LocateRange(dst[lo:hi], l.cellRegion, lats[lo:hi], lons[lo:hi], lo)
		}(w, lo, hi)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// LocateCell maps a grid cell directly to its neighborhood id.
func (l *Layout) LocateCell(c Cell) (int, error) {
	if !l.grid.InBounds(c) {
		return 0, fmt.Errorf("fairindex: cell %v outside %v", c, l.grid)
	}
	return l.cellRegion[l.grid.Index(c)], nil
}

// queryCellRect maps a geographic query rectangle onto the grid:
// the half-open rectangle of cells between the cells containing the
// window's southwest and northeast corners (clamped to the grid,
// matching Locate's convention for boundary and outside points). The
// empty rectangle is returned when the window lies strictly outside
// the bounding box. Degenerate windows (a line or a single point,
// MinLat == MaxLat) are valid and resolve to the row/column of cells
// containing them.
func (l *Layout) queryCellRect(q BBox) (geo.CellRect, error) {
	for _, v := range [4]float64{q.MinLat, q.MinLon, q.MaxLat, q.MaxLon} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return geo.CellRect{}, fmt.Errorf("%w: non-finite rectangle %+v", ErrQuery, q)
		}
	}
	if q.MinLat > q.MaxLat || q.MinLon > q.MaxLon {
		return geo.CellRect{}, fmt.Errorf("%w: inverted rectangle %+v", ErrQuery, q)
	}
	if q.MaxLat < l.box.MinLat || q.MinLat > l.box.MaxLat ||
		q.MaxLon < l.box.MinLon || q.MinLon > l.box.MaxLon {
		return geo.CellRect{}, nil
	}
	sw := l.mapper.CellOf(q.MinLat, q.MinLon)
	ne := l.mapper.CellOf(q.MaxLat, q.MaxLon)
	return geo.CellRect{Row0: sw.Row, Col0: sw.Col, Row1: ne.Row + 1, Col1: ne.Col + 1}, nil
}

// RangeQuery returns the regions intersecting an axis-aligned
// geographic rectangle, ordered by ascending region id, with each
// region's overlapping cell count and covered fraction. The window is
// resolved at cell granularity (see queryCellRect); a window strictly
// outside the bounding box yields an empty result, a malformed
// (inverted or non-finite) rectangle an error.
//
// The scan is pruned by the per-region bounding rectangles: regions
// whose bounds miss the window are skipped without touching the
// cell→region table, and regions that exactly fill their bounding
// rectangle are counted by rectangle intersection alone. Results are
// identical to a brute-force scan of every grid cell (pinned by a
// property test).
func (l *Layout) RangeQuery(q BBox) ([]RegionOverlap, error) {
	qr, err := l.queryCellRect(q)
	if err != nil {
		return nil, err
	}
	if qr.Empty() {
		return nil, nil
	}
	var out []RegionOverlap
	v := l.grid.V
	for region, rect := range l.regionRects {
		inter := rect.Intersect(qr)
		if inter.Empty() {
			continue
		}
		cells := 0
		if l.regionCells[region] == rect.Area() {
			// Solid region: its cells are exactly its bounding rect.
			cells = inter.Area()
		} else {
			for row := inter.Row0; row < inter.Row1; row++ {
				base := row * v
				for col := inter.Col0; col < inter.Col1; col++ {
					if l.cellRegion[base+col] == region {
						cells++
					}
				}
			}
		}
		if cells > 0 {
			out = append(out, RegionOverlap{
				Region:   region,
				Cells:    cells,
				Fraction: float64(cells) / float64(l.regionCells[region]),
			})
		}
	}
	return out, nil
}

// NearestRegions returns the k regions whose centroids are nearest to
// the coordinate, ordered by ascending distance (ties broken by
// ascending region id). Distance is planar Euclidean over degrees —
// adequate at city scale; it is not a great-circle distance. The
// point may lie outside the bounding box. k is clamped to NumRegions;
// k < 1 and non-finite coordinates are errors.
//
// The search runs branch-and-bound over the centroid kd-tree; results
// are identical to a full sorted centroid scan (pinned by a property
// test).
func (l *Layout) NearestRegions(lat, lon float64, k int) ([]RegionDistance, error) {
	res, err := l.NearestRegionsSquared(lat, lon, k)
	if err != nil {
		return nil, err
	}
	for i := range res {
		res[i].Distance = math.Sqrt(res[i].Distance)
	}
	return res, nil
}

// NearestRegionsSquared is NearestRegions without the final square
// root: distances are squared planar Euclidean degrees, in the same
// (squared distance, region id) order the search itself selects by.
func (l *Layout) NearestRegionsSquared(lat, lon float64, k int) ([]RegionDistance, error) {
	if math.IsNaN(lat) || math.IsInf(lat, 0) || math.IsNaN(lon) || math.IsInf(lon, 0) {
		return nil, fmt.Errorf("%w: non-finite coordinate (%v, %v)", ErrQuery, lat, lon)
	}
	if k < 1 {
		return nil, fmt.Errorf("%w: k must be at least 1, got %d", ErrQuery, k)
	}
	if k > l.numRegions {
		k = l.numRegions
	}
	res := make([]RegionDistance, 0, k)
	l.knnVisit(&res, k, lat, lon, 0, len(l.knnOrder), 0)
	return res, nil
}

// centroidDegrees converts a region's stored normalized centroid to
// geographic degrees.
func (l *Layout) centroidDegrees(region int) (lat, lon float64) {
	c := l.centroids[region]
	lat = l.box.MinLat + c[0]*(l.box.MaxLat-l.box.MinLat)
	lon = l.box.MinLon + c[1]*(l.box.MaxLon-l.box.MinLon)
	return lat, lon
}

// knnVisit recursively searches the implicit kd-tree rooted at the
// median of knnOrder[lo:hi). axis 0 splits on latitude (rows), axis 1
// on longitude (columns). res accumulates the best k candidates in
// (squared distance, region id) order; subtrees are pruned when their
// splitting plane is provably farther than the current worst
// candidate.
func (l *Layout) knnVisit(res *[]RegionDistance, k int, lat, lon float64, lo, hi, axis int) {
	if lo >= hi {
		return
	}
	mid := lo + (hi-lo)/2
	region := l.knnOrder[mid]
	cLat, cLon := l.centroidDegrees(region)
	dLat, dLon := lat-cLat, lon-cLon
	insertNeighbor(res, k, RegionDistance{Region: region, Distance: dLat*dLat + dLon*dLon})
	delta := dLat
	if axis == 1 {
		delta = dLon
	}
	nearLo, nearHi, farLo, farHi := lo, mid, mid+1, hi
	if delta > 0 {
		nearLo, nearHi, farLo, farHi = mid+1, hi, lo, mid
	}
	l.knnVisit(res, k, lat, lon, nearLo, nearHi, 1-axis)
	// The far half only holds centroids at least |delta| away along
	// the split axis. <= (not <): an equidistant centroid with a
	// smaller region id must still displace the current worst.
	if len(*res) < k || delta*delta <= (*res)[len(*res)-1].Distance {
		l.knnVisit(res, k, lat, lon, farLo, farHi, 1-axis)
	}
}

// insertNeighbor inserts a candidate into the sorted top-k slice,
// keeping (distance, region id) order and dropping the worst entry
// when full.
func insertNeighbor(res *[]RegionDistance, k int, nd RegionDistance) {
	s := *res
	pos := sort.Search(len(s), func(i int) bool {
		if s[i].Distance != nd.Distance {
			return s[i].Distance > nd.Distance
		}
		return s[i].Region > nd.Region
	})
	if len(s) < k {
		s = append(s, RegionDistance{})
	} else if pos >= k {
		return
	}
	copy(s[pos+1:], s[pos:])
	s[pos] = nd
	*res = s
}

// buildKNNOrder arranges region ids as an implicit balanced kd-tree
// over their centroids: the subtree spanning order[lo:hi) is rooted
// at the median index lo+(hi-lo)/2, the left half holds centroids at
// or below the root along the level's axis, the right half at or
// above. Ties sort by region id, so the layout is deterministic.
func buildKNNOrder(centroids [][2]float64) []int {
	order := make([]int, len(centroids))
	for i := range order {
		order[i] = i
	}
	var build func(lo, hi, axis int)
	build = func(lo, hi, axis int) {
		if hi-lo <= 1 {
			return
		}
		seg := order[lo:hi]
		sort.Slice(seg, func(a, b int) bool {
			ca, cb := centroids[seg[a]], centroids[seg[b]]
			if ca[axis] != cb[axis] {
				return ca[axis] < cb[axis]
			}
			return seg[a] < seg[b]
		})
		mid := lo + (hi-lo)/2
		build(lo, mid, 1-axis)
		build(mid+1, hi, 1-axis)
	}
	build(0, len(order), 0)
	return order
}

// regionBounds computes each region's bounding cell rectangle and
// cell count from the flat cell→region table.
func regionBounds(grid geo.Grid, cellRegion []int, numRegions int) ([]geo.CellRect, []int) {
	rects := make([]geo.CellRect, numRegions)
	for i := range rects {
		rects[i] = geo.CellRect{Row0: grid.U, Col0: grid.V} // empty sentinel
	}
	counts := make([]int, numRegions)
	for i, region := range cellRegion {
		c := grid.CellAt(i)
		r := &rects[region]
		if c.Row < r.Row0 {
			r.Row0 = c.Row
		}
		if c.Row+1 > r.Row1 {
			r.Row1 = c.Row + 1
		}
		if c.Col < r.Col0 {
			r.Col0 = c.Col
		}
		if c.Col+1 > r.Col1 {
			r.Col1 = c.Col + 1
		}
		counts[region]++
	}
	return rects, counts
}
