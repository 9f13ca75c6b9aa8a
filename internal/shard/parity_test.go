package shard_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	fairindex "fairindex"
	"fairindex/internal/shard"
)

// The sharded-vs-whole parity suite: every query type answered the
// way the router answers it — locates by shard artifact, range and kNN
// from the Layout the manifest's cell table determines, window stats
// through the split+merge path — must be bit-identical (Float64bits on
// every float) to the whole retained index, across partition methods
// and shard counts. This is the property that makes the distributed
// serving layer trustworthy — the stats merge is exact because the
// per-region sufficient statistics are additive and every fold runs
// in the same order as the whole index's.

// parityConfigs spans tree partitions (two heights), a quadtree and a
// ragged Voronoi partition.
func parityConfigs() map[string][]fairindex.Option {
	return map[string][]fairindex.Option{
		"fair-h4": {fairindex.WithHeight(4), fairindex.WithSeed(1)},
		"fair-h6": {fairindex.WithHeight(6), fairindex.WithSeed(1)},
		"quadtree": {fairindex.WithMethod(fairindex.MethodFairQuadtree),
			fairindex.WithHeight(4), fairindex.WithSeed(3)},
		"zipcode": {fairindex.WithMethod(fairindex.MethodZipCode),
			fairindex.WithZipSites(12), fairindex.WithSeed(2)},
	}
}

var shardCounts = []int{2, 4, 8}

func buildWhole(t *testing.T, opts ...fairindex.Option) *fairindex.Index {
	t.Helper()
	spec := fairindex.LA()
	spec.NumRecords = 400
	ds, err := fairindex.GenerateCity(spec, fairindex.MustGrid(32, 32))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := fairindex.Build(ds, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// forEachSplit runs fn over every (config, shard count) cell of the
// parity matrix.
func forEachSplit(t *testing.T, fn func(t *testing.T, whole *fairindex.Index, m *shard.Manifest, shards []*fairindex.Index)) {
	for name, opts := range parityConfigs() {
		t.Run(name, func(t *testing.T) {
			whole := buildWhole(t, opts...)
			for _, n := range shardCounts {
				t.Run(fmt.Sprintf("shards-%d", n), func(t *testing.T) {
					if n > whole.NumRegions() {
						t.Skipf("%d regions < %d shards", whole.NumRegions(), n)
					}
					m, shards, err := shard.Split(whole, n)
					if err != nil {
						t.Fatal(err)
					}
					fn(t, whole, m, shards)
				})
			}
		})
	}
}

// samplePoint draws a coordinate around (occasionally outside) the
// box.
func samplePoint(rng *rand.Rand, box fairindex.BBox) (lat, lon float64) {
	latSpan := box.MaxLat - box.MinLat
	lonSpan := box.MaxLon - box.MinLon
	lat = box.MinLat - 0.2*latSpan + rng.Float64()*1.4*latSpan
	lon = box.MinLon - 0.2*lonSpan + rng.Float64()*1.4*lonSpan
	return lat, lon
}

func sampleBox(rng *rand.Rand, box fairindex.BBox) fairindex.BBox {
	lat0, lon0 := samplePoint(rng, box)
	lat1, lon1 := samplePoint(rng, box)
	if lat1 < lat0 {
		lat0, lat1 = lat1, lat0
	}
	if lon1 < lon0 {
		lon0, lon1 = lon1, lon0
	}
	return fairindex.BBox{MinLat: lat0, MinLon: lon0, MaxLat: lat1, MaxLon: lon1}
}

func TestSplitManifestShape(t *testing.T) {
	forEachSplit(t, func(t *testing.T, whole *fairindex.Index, m *shard.Manifest, shards []*fairindex.Index) {
		if len(shards) != len(m.Shards) {
			t.Fatalf("%d artifacts for %d manifest shards", len(shards), len(m.Shards))
		}
		gen, err := whole.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if m.Generation != gen {
			t.Errorf("manifest generation %x, whole fingerprint %x", m.Generation, gen)
		}
		for i, sx := range shards {
			if got, want := sx.NumRegions(), m.LocalRegions(i); got != want {
				t.Errorf("shard %d: %d regions, manifest says %d", i, got, want)
			}
			fp, err := sx.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if fp != m.Shards[i].Fingerprint {
				t.Errorf("shard %d: fingerprint %x, manifest records %x", i, fp, m.Shards[i].Fingerprint)
			}
			// Shards must round-trip through the standard codec: the
			// router's backends load them as ordinary artifacts.
			blob, err := sx.MarshalBinary()
			if err != nil {
				t.Fatalf("shard %d: %v", i, err)
			}
			var back fairindex.Index
			if err := back.UnmarshalBinary(blob); err != nil {
				t.Fatalf("shard %d: reload: %v", i, err)
			}
		}
		// Manifest codec round trip is byte-identical.
		enc := m.Encode()
		dec, err := shard.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dec.Shards, m.Shards) {
			t.Errorf("decoded shards differ: %v vs %v", dec.Shards, m.Shards)
		}
		if got := dec.Encode(); !reflect.DeepEqual(got, enc) {
			t.Error("manifest re-encoding differs from original bytes")
		}
	})
}

func TestShardLocateParity(t *testing.T) {
	forEachSplit(t, func(t *testing.T, whole *fairindex.Index, m *shard.Manifest, shards []*fairindex.Index) {
		rng := rand.New(rand.NewSource(11))
		mapper, err := fairindex.NewMapper(whole.Grid(), whole.Box())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			lat, lon := samplePoint(rng, whole.Box())
			want, err := whole.Locate(lat, lon)
			if err != nil {
				t.Fatalf("point %d: %v", i, err)
			}
			// Route by cell via the manifest, then answer through the
			// owning shard artifact.
			cell := mapper.CellOf(lat, lon)
			region := m.CellRegion[whole.Grid().Index(cell)]
			si, local := m.ToLocal(region)
			gotLocal, err := shards[si].Locate(lat, lon)
			if err != nil {
				t.Fatalf("point %d via shard %d: %v", i, si, err)
			}
			if gotLocal != local {
				t.Fatalf("point %d: shard %d located local %d, manifest expects %d", i, si, gotLocal, local)
			}
			got, ok := m.ToGlobal(si, gotLocal)
			if !ok || got != want {
				t.Fatalf("point %d: sharded locate %d (ok=%v), whole %d", i, got, ok, want)
			}
		}
	})
}

func TestShardLocateBatchParity(t *testing.T) {
	forEachSplit(t, func(t *testing.T, whole *fairindex.Index, m *shard.Manifest, shards []*fairindex.Index) {
		rng := rand.New(rand.NewSource(12))
		n := 64
		lats, lons := make([]float64, n), make([]float64, n)
		for i := range lats {
			lats[i], lons[i] = samplePoint(rng, whole.Box())
		}
		lats[7] = math.NaN()
		lons[20] = math.Inf(1)
		want, wantErr := whole.LocateBatch(lats, lons)

		// Partition points by owning shard, sub-batch each, merge by
		// position; invalid points are handled at the routing layer.
		mapper, err := fairindex.NewMapper(whole.Grid(), whole.Box())
		if err != nil {
			t.Fatal(err)
		}
		got := make([]int, n)
		idxOf := make([][]int, len(shards))
		subLat := make([][]float64, len(shards))
		subLon := make([][]float64, len(shards))
		for i := range lats {
			if lats[i]-lats[i] != 0 || lons[i]-lons[i] != 0 {
				got[i] = fairindex.RegionInvalid
				continue
			}
			cell := mapper.CellOf(lats[i], lons[i])
			si, _ := m.ToLocal(m.CellRegion[whole.Grid().Index(cell)])
			idxOf[si] = append(idxOf[si], i)
			subLat[si] = append(subLat[si], lats[i])
			subLon[si] = append(subLon[si], lons[i])
		}
		for si := range shards {
			if len(idxOf[si]) == 0 {
				continue
			}
			regions, err := shards[si].LocateBatch(subLat[si], subLon[si])
			if err != nil {
				t.Fatalf("shard %d sub-batch: %v", si, err)
			}
			for j, local := range regions {
				g, ok := m.ToGlobal(si, local)
				if !ok {
					t.Fatalf("shard %d returned sentinel for owned point", si)
				}
				got[idxOf[si][j]] = g
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("merged batch regions differ:\n got %v\nwant %v", got, want)
		}
		if wantErr == nil {
			t.Fatal("whole batch accepted invalid points")
		}
	})
}

// manifestLayout derives the region geometry the router answers range
// and kNN with.
func manifestLayout(t *testing.T, m *shard.Manifest) *fairindex.Layout {
	t.Helper()
	layout, err := fairindex.NewLayout(m.Grid, m.Box, m.CellRegion)
	if err != nil {
		t.Fatal(err)
	}
	return layout
}

func TestShardRangeQueryParity(t *testing.T) {
	forEachSplit(t, func(t *testing.T, whole *fairindex.Index, m *shard.Manifest, shards []*fairindex.Index) {
		layout := manifestLayout(t, m)
		rng := rand.New(rand.NewSource(13))
		for i := 0; i < 80; i++ {
			q := sampleBox(rng, whole.Box())
			want, err := whole.RangeQuery(q)
			if err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
			got, err := layout.RangeQuery(q)
			if err != nil {
				t.Fatalf("query %d from the manifest: %v", i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d (%+v):\n got %v\nwant %v", i, q, got, want)
			}
		}
	})
}

func TestShardNearestRegionsParity(t *testing.T) {
	forEachSplit(t, func(t *testing.T, whole *fairindex.Index, m *shard.Manifest, shards []*fairindex.Index) {
		layout := manifestLayout(t, m)
		rng := rand.New(rand.NewSource(14))
		for i := 0; i < 60; i++ {
			lat, lon := samplePoint(rng, whole.Box())
			k := 1 + rng.Intn(whole.NumRegions()+2) // occasionally > NumRegions
			for _, squared := range []bool{false, true} {
				nearestWhole, nearestManifest := whole.NearestRegions, layout.NearestRegions
				if squared {
					nearestWhole, nearestManifest = whole.NearestRegionsSquared, layout.NearestRegionsSquared
				}
				want, err := nearestWhole(lat, lon, k)
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				got, err := nearestManifest(lat, lon, k)
				if err != nil {
					t.Fatalf("query %d from the manifest: %v", i, err)
				}
				if len(got) != len(want) {
					t.Fatalf("query %d: manifest %d regions, whole %d", i, len(got), len(want))
				}
				for j := range got {
					if got[j].Region != want[j].Region ||
						math.Float64bits(got[j].Distance) != math.Float64bits(want[j].Distance) {
						t.Fatalf("query %d (squared %v) entry %d: manifest %+v, whole %+v", i, squared, j, got[j], want[j])
					}
				}
			}
		}
	})
}

// gatherWindow splits a global window across the shards, queries each
// owning shard's GroupStats and reassembles the global per-region
// stats list — the router's stats scatter step, in process.
func gatherWindow(t *testing.T, m *shard.Manifest, shards []*fairindex.Index, task int, regions []int) []fairindex.RegionStat {
	t.Helper()
	perShard := make([][]int, len(shards))
	for _, g := range regions {
		si, local := m.ToLocal(g)
		perShard[si] = append(perShard[si], local)
	}
	var merged []fairindex.RegionStat
	for si, locals := range perShard {
		if len(locals) == 0 {
			continue
		}
		ws, err := shards[si].GroupStats(task, locals)
		if err != nil {
			t.Fatalf("shard %d stats: %v", si, err)
		}
		merged = append(merged, m.TranslateStats(si, ws.Regions)...)
	}
	return merged
}

// requireSameWindow compares every float through Float64bits so NaN
// sentinels and exact bit patterns are enforced, not approximated.
func requireSameWindow(t *testing.T, got, want fairindex.WindowStats) {
	t.Helper()
	type f struct {
		name      string
		got, want float64
	}
	checks := []f{
		{"MeanConf", got.MeanConf, want.MeanConf},
		{"PosRate", got.PosRate, want.PosRate},
		{"Miscal", got.Miscal, want.Miscal},
		{"CalRatio", got.CalRatio, want.CalRatio},
		{"ENCE", got.ENCE, want.ENCE},
	}
	if got.Task != want.Task || got.Count != want.Count {
		t.Fatalf("window head differs: got task=%d count=%d, want task=%d count=%d",
			got.Task, got.Count, want.Task, want.Count)
	}
	for _, c := range checks {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Fatalf("%s: merged %v (%x), whole %v (%x)", c.name, c.got,
				math.Float64bits(c.got), c.want, math.Float64bits(c.want))
		}
	}
	if len(got.Regions) != len(want.Regions) {
		t.Fatalf("merged %d regions, whole %d", len(got.Regions), len(want.Regions))
	}
	for i := range got.Regions {
		g, w := got.Regions[i], want.Regions[i]
		same := g.Region == w.Region && g.Count == w.Count &&
			math.Float64bits(g.MeanConf) == math.Float64bits(w.MeanConf) &&
			math.Float64bits(g.PosRate) == math.Float64bits(w.PosRate) &&
			math.Float64bits(g.Miscal) == math.Float64bits(w.Miscal) &&
			math.Float64bits(g.CalRatio) == math.Float64bits(w.CalRatio) &&
			math.Float64bits(g.SumScore) == math.Float64bits(w.SumScore) &&
			math.Float64bits(g.SumLabel) == math.Float64bits(w.SumLabel)
		if !same {
			t.Fatalf("region %d differs: merged %+v, whole %+v", i, g, w)
		}
	}
	if len(got.Metrics) != len(want.Metrics) {
		t.Fatalf("merged %d metrics, whole %d", len(got.Metrics), len(want.Metrics))
	}
	for name, w := range want.Metrics {
		g, ok := got.Metrics[name]
		if !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("metric %q: merged %v, whole %v", name, g, w)
		}
	}
}

// sampleWindows yields region windows: empty, full, and random
// subsets.
func sampleWindows(rng *rand.Rand, numRegions int) [][]int {
	full := make([]int, numRegions)
	for i := range full {
		full[i] = i
	}
	windows := [][]int{nil, full}
	for w := 0; w < 20; w++ {
		var ids []int
		for g := 0; g < numRegions; g++ {
			if rng.Intn(3) == 0 {
				ids = append(ids, g)
			}
		}
		windows = append(windows, ids)
	}
	return windows
}

func TestShardGroupStatsParity(t *testing.T) {
	forEachSplit(t, func(t *testing.T, whole *fairindex.Index, m *shard.Manifest, shards []*fairindex.Index) {
		rng := rand.New(rand.NewSource(15))
		task := whole.Tasks()[0]
		for wi, ids := range sampleWindows(rng, whole.NumRegions()) {
			want, err := whole.GroupStats(task, ids)
			if err != nil {
				t.Fatalf("window %d: %v", wi, err)
			}
			merged := gatherWindow(t, m, shards, task, ids)
			got, err := fairindex.MergeWindowStats(task, merged)
			if err != nil {
				t.Fatalf("window %d merge: %v", wi, err)
			}
			requireSameWindow(t, got, want)
		}
	})
}

func TestShardGroupStatsMetricsParity(t *testing.T) {
	forEachSplit(t, func(t *testing.T, whole *fairindex.Index, m *shard.Manifest, shards []*fairindex.Index) {
		rng := rand.New(rand.NewSource(16))
		task := whole.Tasks()[0]
		names := fairindex.Metrics() // all six built-ins
		if len(names) < 6 {
			t.Fatalf("expected at least 6 registered metrics, have %v", names)
		}
		for wi, ids := range sampleWindows(rng, whole.NumRegions()) {
			want, err := whole.GroupStatsMetrics(task, ids, names...)
			if err != nil {
				t.Fatalf("window %d: %v", wi, err)
			}
			merged := gatherWindow(t, m, shards, task, ids)
			got, err := fairindex.MergeWindowStatsMetrics(task, merged, names...)
			if err != nil {
				t.Fatalf("window %d merge: %v", wi, err)
			}
			requireSameWindow(t, got, want)
		}
	})
}

func TestExtractShardRejectsBadRanges(t *testing.T) {
	whole := buildWhole(t, fairindex.WithHeight(3), fairindex.WithSeed(1))
	n := whole.NumRegions()
	for _, r := range [][2]int{{-1, 2}, {0, 0}, {3, 2}, {0, n + 1}} {
		if _, err := whole.ExtractShard(r[0], r[1]); err == nil {
			t.Errorf("ExtractShard(%d, %d) accepted an invalid range", r[0], r[1])
		}
	}
	if _, _, err := shard.Split(whole, 0); err == nil {
		t.Error("Split with 0 shards accepted")
	}
	if _, _, err := shard.Split(whole, n+1); err == nil {
		t.Error("Split with more shards than regions accepted")
	}
}

// TestSplitRejectsEditedCentroids pins Split's geometry check: the
// router derives centroids from the manifest's cell table, so an
// artifact whose stored centroids that table does not reproduce — a
// hand-edited file — must not split, or the router's kNN answers would
// differ from the whole index's.
func TestSplitRejectsEditedCentroids(t *testing.T) {
	whole := buildWhole(t, fairindex.WithHeight(3), fairindex.WithSeed(1))
	if _, _, err := shard.Split(whole, 2); err != nil {
		t.Fatalf("unedited artifact: %v", err)
	}
	blob, err := whole.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	c, err := whole.Centroid(0)
	if err != nil {
		t.Fatal(err)
	}
	pattern := binary.LittleEndian.AppendUint64(nil, math.Float64bits(c[0]))
	pattern = binary.LittleEndian.AppendUint64(pattern, math.Float64bits(c[1]))
	at := bytes.Index(blob, pattern)
	if at < 0 || bytes.Contains(blob[at+1:], pattern) {
		t.Fatalf("region 0's centroid bytes are not unique in the artifact (at %d)", at)
	}
	binary.LittleEndian.PutUint64(blob[at:], math.Float64bits(c[0]+1e-9))
	var edited fairindex.Index
	if err := edited.UnmarshalBinary(blob); err != nil {
		t.Fatalf("edited artifact does not load: %v", err)
	}
	if _, _, err := shard.Split(&edited, 2); err == nil || !strings.Contains(err.Error(), "centroid") {
		t.Fatalf("Split of an artifact with an edited centroid: err %v, want a centroid refusal", err)
	}
}
