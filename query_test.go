package fairindex_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	fairindex "fairindex"
)

// queryConfigs are the partition shapes the query property tests run
// against: tree partitions (solid rectangular regions, the fast
// RangeQuery path), a Voronoi partition (ragged regions, the cell-scan
// path) and a quadtree.
func queryConfigs() map[string][]fairindex.Option {
	return map[string][]fairindex.Option{
		"fair-h6": {fairindex.WithHeight(6), fairindex.WithSeed(1)},
		"zipcode": {fairindex.WithMethod(fairindex.MethodZipCode),
			fairindex.WithZipSites(12), fairindex.WithSeed(2)},
		"quadtree": {fairindex.WithMethod(fairindex.MethodFairQuadtree),
			fairindex.WithHeight(4), fairindex.WithSeed(3)},
	}
}

// randomBox samples a query rectangle overlapping (or deliberately
// missing) the index's bounding box, occasionally degenerate.
func randomBox(rng *rand.Rand, box fairindex.BBox) fairindex.BBox {
	latSpan := box.MaxLat - box.MinLat
	lonSpan := box.MaxLon - box.MinLon
	sample := func(lo, span float64) float64 { return lo - 0.3*span + rng.Float64()*1.6*span }
	lat0, lat1 := sample(box.MinLat, latSpan), sample(box.MinLat, latSpan)
	lon0, lon1 := sample(box.MinLon, lonSpan), sample(box.MinLon, lonSpan)
	if lat1 < lat0 {
		lat0, lat1 = lat1, lat0
	}
	if lon1 < lon0 {
		lon0, lon1 = lon1, lon0
	}
	if rng.Intn(10) == 0 { // degenerate: a point query
		lat1, lon1 = lat0, lon0
	}
	return fairindex.BBox{MinLat: lat0, MinLon: lon0, MaxLat: lat1, MaxLon: lon1}
}

// bruteRangeQuery independently reimplements the documented range
// semantics with a full cell scan: clamp the window's corner cells,
// tally every cell in between through LocateCell.
func bruteRangeQuery(t *testing.T, idx *fairindex.Index, q fairindex.BBox) []fairindex.RegionOverlap {
	t.Helper()
	box, grid := idx.Box(), idx.Grid()
	if q.MaxLat < box.MinLat || q.MinLat > box.MaxLat ||
		q.MaxLon < box.MinLon || q.MinLon > box.MaxLon {
		return nil
	}
	m, err := fairindex.NewMapper(grid, box)
	if err != nil {
		t.Fatal(err)
	}
	sw := m.CellOf(q.MinLat, q.MinLon)
	ne := m.CellOf(q.MaxLat, q.MaxLon)
	counts := make([]int, idx.NumRegions())
	for row := sw.Row; row <= ne.Row; row++ {
		for col := sw.Col; col <= ne.Col; col++ {
			region, err := idx.LocateCell(fairindex.Cell{Row: row, Col: col})
			if err != nil {
				t.Fatal(err)
			}
			counts[region]++
		}
	}
	var out []fairindex.RegionOverlap
	for region, cells := range counts {
		if cells == 0 {
			continue
		}
		total, err := idx.RegionCells(region)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fairindex.RegionOverlap{
			Region:   region,
			Cells:    cells,
			Fraction: float64(cells) / float64(total),
		})
	}
	return out
}

func TestRangeQueryMatchesBruteForce(t *testing.T) {
	for name, opts := range queryConfigs() {
		t.Run(name, func(t *testing.T) {
			idx, _ := buildSmallIndex(t, opts...)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 120; i++ {
				q := randomBox(rng, idx.Box())
				got, err := idx.RangeQuery(q)
				if err != nil {
					t.Fatalf("query %d (%+v): %v", i, q, err)
				}
				want := bruteRangeQuery(t, idx, q)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d (%+v):\n got %v\nwant %v", i, q, got, want)
				}
				// RangeRegions is the same window's id list.
				ids, err := idx.RangeRegions(q)
				if err != nil {
					t.Fatalf("query %d (%+v): RangeRegions: %v", i, q, err)
				}
				wantIDs := make([]int, len(got))
				for j, ov := range got {
					wantIDs[j] = ov.Region
				}
				if !reflect.DeepEqual(ids, wantIDs) {
					t.Fatalf("query %d (%+v): RangeRegions %v, want %v", i, q, ids, wantIDs)
				}
			}
		})
	}
}

func TestRangeQueryFullAndEmptyWindows(t *testing.T) {
	idx, _ := buildSmallIndex(t, fairindex.WithHeight(5))
	box := idx.Box()

	full, err := idx.RangeQuery(box)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != idx.NumRegions() {
		t.Fatalf("full-box query hit %d of %d regions", len(full), idx.NumRegions())
	}
	totalCells := 0
	for i, ov := range full {
		if ov.Region != i {
			t.Fatalf("results not ordered by region id: %v at %d", ov, i)
		}
		if ov.Fraction != 1 {
			t.Errorf("region %d fraction %v, want 1 for a full-box query", ov.Region, ov.Fraction)
		}
		totalCells += ov.Cells
	}
	if totalCells != idx.Grid().NumCells() {
		t.Errorf("full-box query covers %d of %d cells", totalCells, idx.Grid().NumCells())
	}

	// A window far enough out to overflow an int conversion covers
	// every cell, like the box itself.
	huge, err := idx.RangeQuery(fairindex.BBox{MinLat: -1e300, MinLon: -1e300, MaxLat: 1e300, MaxLon: 1e300})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(huge, full) {
		t.Errorf("±1e300 window = %d overlaps, want the full box's %d", len(huge), len(full))
	}

	// A point window resolves to exactly the enclosing region.
	lat := (box.MinLat + box.MaxLat) / 2
	lon := (box.MinLon + box.MaxLon) / 2
	pt, err := idx.RangeQuery(fairindex.BBox{MinLat: lat, MinLon: lon, MaxLat: lat, MaxLon: lon})
	if err != nil {
		t.Fatal(err)
	}
	region, err := idx.Locate(lat, lon)
	if err != nil {
		t.Fatal(err)
	}
	if len(pt) != 1 || pt[0].Region != region || pt[0].Cells != 1 {
		t.Fatalf("point query = %v, want single-cell overlap with region %d", pt, region)
	}

	// Strictly outside the box: empty result, not an error.
	out, err := idx.RangeQuery(fairindex.BBox{
		MinLat: box.MaxLat + 1, MinLon: box.MinLon,
		MaxLat: box.MaxLat + 2, MaxLon: box.MaxLon,
	})
	if err != nil || out != nil {
		t.Fatalf("outside query = %v, %v; want nil, nil", out, err)
	}
}

func TestRangeQueryRejectsMalformedWindows(t *testing.T) {
	idx, _ := buildSmallIndex(t, fairindex.WithHeight(4))
	box := idx.Box()
	bad := []fairindex.BBox{
		{MinLat: box.MaxLat, MinLon: box.MinLon, MaxLat: box.MinLat, MaxLon: box.MaxLon}, // inverted lat
		{MinLat: box.MinLat, MinLon: box.MaxLon, MaxLat: box.MaxLat, MaxLon: box.MinLon}, // inverted lon
		{MinLat: math.NaN(), MinLon: box.MinLon, MaxLat: box.MaxLat, MaxLon: box.MaxLon},
		{MinLat: box.MinLat, MinLon: math.Inf(-1), MaxLat: box.MaxLat, MaxLon: box.MaxLon},
	}
	for _, q := range bad {
		if _, err := idx.RangeQuery(q); !errors.Is(err, fairindex.ErrQuery) {
			t.Errorf("RangeQuery(%+v) err = %v, want ErrQuery", q, err)
		}
	}
}

// bruteNearest independently recomputes the k nearest centroids with
// a full sorted scan, using the same degree-space distance formula.
func bruteNearest(t *testing.T, idx *fairindex.Index, lat, lon float64, k int) []fairindex.RegionDistance {
	t.Helper()
	box := idx.Box()
	type cand struct {
		d2     float64
		region int
	}
	cands := make([]cand, idx.NumRegions())
	for region := range cands {
		c, err := idx.Centroid(region)
		if err != nil {
			t.Fatal(err)
		}
		cLat := box.MinLat + c[0]*(box.MaxLat-box.MinLat)
		cLon := box.MinLon + c[1]*(box.MaxLon-box.MinLon)
		dLat, dLon := lat-cLat, lon-cLon
		cands[region] = cand{d2: dLat*dLat + dLon*dLon, region: region}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].d2 != cands[b].d2 {
			return cands[a].d2 < cands[b].d2
		}
		return cands[a].region < cands[b].region
	})
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]fairindex.RegionDistance, k)
	for i, c := range cands[:k] {
		out[i] = fairindex.RegionDistance{Region: c.region, Distance: math.Sqrt(c.d2)}
	}
	return out
}

func TestNearestRegionsMatchesBruteForce(t *testing.T) {
	for name, opts := range queryConfigs() {
		t.Run(name, func(t *testing.T) {
			idx, _ := buildSmallIndex(t, opts...)
			box := idx.Box()
			rng := rand.New(rand.NewSource(11))
			latSpan := box.MaxLat - box.MinLat
			lonSpan := box.MaxLon - box.MinLon
			for i := 0; i < 150; i++ {
				lat := box.MinLat - 0.4*latSpan + rng.Float64()*1.8*latSpan
				lon := box.MinLon - 0.4*lonSpan + rng.Float64()*1.8*lonSpan
				k := 1 + rng.Intn(idx.NumRegions()+2) // sometimes > NumRegions
				got, err := idx.NearestRegions(lat, lon, k)
				if err != nil {
					t.Fatalf("point %d: %v", i, err)
				}
				want := bruteNearest(t, idx, lat, lon, k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("point %d (%.5f, %.5f) k=%d:\n got %v\nwant %v", i, lat, lon, k, got, want)
				}
			}
		})
	}
}

func TestNearestRegionsRejectsBadArguments(t *testing.T) {
	idx, _ := buildSmallIndex(t, fairindex.WithHeight(4))
	if _, err := idx.NearestRegions(34, -118, 0); !errors.Is(err, fairindex.ErrQuery) {
		t.Errorf("k=0 err = %v, want ErrQuery", err)
	}
	if _, err := idx.NearestRegions(34, -118, -3); !errors.Is(err, fairindex.ErrQuery) {
		t.Errorf("k=-3 err = %v, want ErrQuery", err)
	}
	if _, err := idx.NearestRegions(math.NaN(), -118, 1); !errors.Is(err, fairindex.ErrQuery) {
		t.Errorf("NaN lat err = %v, want ErrQuery", err)
	}
	if _, err := idx.NearestRegions(34, math.Inf(1), 1); !errors.Is(err, fairindex.ErrQuery) {
		t.Errorf("Inf lon err = %v, want ErrQuery", err)
	}
	got, err := idx.NearestRegions(34, -118, idx.NumRegions()+100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != idx.NumRegions() {
		t.Errorf("oversized k returned %d regions, want all %d", len(got), idx.NumRegions())
	}
}

func TestGroupStatsFullWindowMatchesReport(t *testing.T) {
	idx, ds := buildSmallIndex(t, fairindex.WithHeight(5))
	rep, err := idx.Report(0)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, idx.NumRegions())
	for i := range all {
		all[i] = i
	}
	ws, err := idx.GroupStats(0, all)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Count != len(ds.Records) {
		t.Errorf("full-window population %d, want %d", ws.Count, len(ds.Records))
	}
	if ws.ENCE != rep.ENCE {
		t.Errorf("full-window ENCE %v != report ENCE %v", ws.ENCE, rep.ENCE)
	}
	if len(ws.Regions) != idx.NumRegions() {
		t.Fatalf("per-region detail holds %d of %d regions", len(ws.Regions), idx.NumRegions())
	}
	// Per-region entries must agree with the stored top-neighborhood
	// report wherever the two overlap (same sufficient statistics).
	for _, nr := range rep.TopNeighborhoods {
		rs := ws.Regions[nr.Group]
		if rs.Region != nr.Group || rs.Count != nr.Count {
			t.Fatalf("region %d: stat %+v vs report %+v", nr.Group, rs, nr)
		}
		if rs.MeanConf != nr.MeanConf || rs.PosRate != nr.PosRate || rs.Miscal != nr.Miscal {
			t.Errorf("region %d: stat %+v disagrees with report %+v", nr.Group, rs, nr)
		}
		if !(math.IsNaN(rs.CalRatio) && math.IsNaN(nr.Ratio)) && rs.CalRatio != nr.Ratio {
			t.Errorf("region %d: ratio %v vs %v", nr.Group, rs.CalRatio, nr.Ratio)
		}
	}
}

func TestGroupStatsWindows(t *testing.T) {
	idx, _ := buildSmallIndex(t, fairindex.WithHeight(5))
	n := idx.NumRegions()
	var a, b []int
	for i := 0; i < n; i++ {
		if i < n/2 {
			a = append(a, i)
		} else {
			b = append(b, i)
		}
	}
	wa, err := idx.GroupStats(0, a)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := idx.GroupStats(0, b)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]int(nil), a...), b...)
	wall, err := idx.GroupStats(0, all)
	if err != nil {
		t.Fatal(err)
	}
	if wa.Count+wb.Count != wall.Count {
		t.Errorf("window populations not additive: %d + %d != %d", wa.Count, wb.Count, wall.Count)
	}

	// Region order in the request must not matter.
	rev := make([]int, len(a))
	for i, r := range a {
		rev[len(a)-1-i] = r
	}
	wrev, err := idx.GroupStats(0, rev)
	if err != nil {
		t.Fatal(err)
	}
	// Compare via formatting: NaN calibration ratios are legitimate
	// and would defeat DeepEqual.
	if fmt.Sprintf("%+v", wa) != fmt.Sprintf("%+v", wrev) {
		t.Error("GroupStats depends on request order")
	}

	// Empty window: zero aggregates, undefined ratio.
	empty, err := idx.GroupStats(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Count != 0 || empty.ENCE != 0 || !math.IsNaN(empty.CalRatio) {
		t.Errorf("empty window = %+v, want zero counts and NaN ratio", empty)
	}
}

func TestGroupStatsRejectsBadWindows(t *testing.T) {
	idx, _ := buildSmallIndex(t, fairindex.WithHeight(4))
	if _, err := idx.GroupStats(0, []int{0, 0}); !errors.Is(err, fairindex.ErrQuery) {
		t.Errorf("duplicate region err = %v, want ErrQuery", err)
	}
	if _, err := idx.GroupStats(0, []int{-1}); !errors.Is(err, fairindex.ErrQuery) {
		t.Errorf("negative region err = %v, want ErrQuery", err)
	}
	if _, err := idx.GroupStats(0, []int{idx.NumRegions()}); !errors.Is(err, fairindex.ErrQuery) {
		t.Errorf("out-of-range region err = %v, want ErrQuery", err)
	}
	if _, err := idx.GroupStats(99, []int{0}); !errors.Is(err, fairindex.ErrNoTask) {
		t.Errorf("unknown task err = %v, want ErrNoTask", err)
	}
}

// TestQueryRoundTrip pins that the serialized acceleration structures
// and region stats reproduce bit-identical query results after a
// marshal/unmarshal cycle.
func TestQueryRoundTrip(t *testing.T) {
	idx, _ := buildSmallIndex(t,
		fairindex.WithHeight(5), fairindex.WithPostProcess(fairindex.PostPlatt))
	blob, err := idx.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back fairindex.Index
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(21))
	box := idx.Box()
	for i := 0; i < 40; i++ {
		q := randomBox(rng, box)
		r0, err0 := idx.RangeQuery(q)
		r1, err1 := back.RangeQuery(q)
		if err0 != nil || err1 != nil {
			t.Fatal(err0, err1)
		}
		if !reflect.DeepEqual(r0, r1) {
			t.Fatalf("RangeQuery diverged after round trip on %+v", q)
		}
		lat := box.MinLat + rng.Float64()*(box.MaxLat-box.MinLat)
		lon := box.MinLon + rng.Float64()*(box.MaxLon-box.MinLon)
		n0, err0 := idx.NearestRegions(lat, lon, 5)
		n1, err1 := back.NearestRegions(lat, lon, 5)
		if err0 != nil || err1 != nil {
			t.Fatal(err0, err1)
		}
		if !reflect.DeepEqual(n0, n1) {
			t.Fatalf("NearestRegions diverged after round trip at (%v, %v)", lat, lon)
		}
	}

	all := make([]int, idx.NumRegions())
	for i := range all {
		all[i] = i
	}
	w0, err := idx.GroupStats(0, all)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := back.GroupStats(0, all)
	if err != nil {
		t.Fatal(err)
	}
	// NaN ratios compare unequal under DeepEqual only if present on
	// one side; normalize by comparing field-wise through formatting.
	if w0.Count != w1.Count || w0.ENCE != w1.ENCE || w0.Miscal != w1.Miscal ||
		w0.MeanConf != w1.MeanConf || w0.PosRate != w1.PosRate {
		t.Fatalf("GroupStats diverged after round trip:\n%+v\n%+v", w0, w1)
	}
	if len(w0.Regions) != len(w1.Regions) {
		t.Fatal("per-region detail length diverged")
	}
	for i := range w0.Regions {
		a, b := w0.Regions[i], w1.Regions[i]
		if a.Region != b.Region || a.Count != b.Count || a.MeanConf != b.MeanConf ||
			a.PosRate != b.PosRate || a.Miscal != b.Miscal {
			t.Fatalf("region stat %d diverged: %+v vs %+v", i, a, b)
		}
		if (math.IsNaN(a.CalRatio) != math.IsNaN(b.CalRatio)) ||
			(!math.IsNaN(a.CalRatio) && a.CalRatio != b.CalRatio) {
			t.Fatalf("region %d ratio diverged: %v vs %v", a.Region, a.CalRatio, b.CalRatio)
		}
	}
}
