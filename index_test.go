package fairindex_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	fairindex "fairindex"
)

// buildSmallIndex builds a reduced-LA index for the given options.
func buildSmallIndex(t *testing.T, opts ...fairindex.Option) (*fairindex.Index, *fairindex.Dataset) {
	t.Helper()
	ds := smallLA(t)
	idx, err := fairindex.Build(ds, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return idx, ds
}

func TestIndexBuildDefaults(t *testing.T) {
	idx, ds := buildSmallIndex(t)
	if idx.Method() != fairindex.MethodFairKD {
		t.Errorf("method = %v, want FairKD default", idx.Method())
	}
	if idx.Height() != 8 {
		t.Errorf("height = %d, want 8", idx.Height())
	}
	if idx.NumRegions() < 2 {
		t.Fatalf("regions = %d", idx.NumRegions())
	}
	if idx.DatasetName() != ds.Name {
		t.Errorf("dataset name = %q", idx.DatasetName())
	}
	if got, want := len(idx.FeatureNames()), ds.NumFeatures(); got != want {
		t.Errorf("feature names = %d, want %d", got, want)
	}
	rep, err := idx.Report(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ENCE < 0 || rep.ENCE > 1 {
		t.Errorf("stored ENCE = %v", rep.ENCE)
	}
	if _, err := idx.Report(99); !errors.Is(err, fairindex.ErrNoTask) {
		t.Errorf("Report(99) err = %v, want ErrNoTask", err)
	}
}

func TestIndexLocateMatchesPartition(t *testing.T) {
	cfg := fairindex.Config{Method: fairindex.MethodFairKD, Height: 5, Seed: 1}
	idx, ds := buildSmallIndex(t, fairindex.WithConfig(cfg))
	res, err := fairindex.Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	part := res.Partition
	for i, rec := range ds.Records {
		want, err := part.RegionOfCell(rec.Cell)
		if err != nil {
			t.Fatal(err)
		}
		got, err := idx.Locate(rec.Lat, rec.Lon)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("record %d: Locate = %d, partition region = %d", i, got, want)
		}
		gotCell, err := idx.LocateCell(rec.Cell)
		if err != nil {
			t.Fatal(err)
		}
		if gotCell != want {
			t.Fatalf("record %d: LocateCell = %d, want %d", i, gotCell, want)
		}
	}
}

func TestIndexLocateBatch(t *testing.T) {
	idx, ds := buildSmallIndex(t, fairindex.WithHeight(4))
	n := 50
	lats := make([]float64, n)
	lons := make([]float64, n)
	for i := 0; i < n; i++ {
		lats[i] = ds.Records[i].Lat
		lons[i] = ds.Records[i].Lon
	}
	regions, err := idx.LocateBatch(lats, lons)
	if err != nil {
		t.Fatal(err)
	}
	for i := range regions {
		single, err := idx.Locate(lats[i], lons[i])
		if err != nil {
			t.Fatal(err)
		}
		if regions[i] != single {
			t.Fatalf("point %d: batch %d != single %d", i, regions[i], single)
		}
	}
	if out, err := idx.LocateBatch(lats, lons[:n-1]); err == nil || out != nil {
		t.Errorf("length mismatch: out = %v, err = %v; want nil slice + error", out, err)
	}
}

// TestIndexLocateBatchPartialErrors pins the per-point error
// semantics: invalid points yield RegionInvalid at their positions
// and a joined error, while the rest of the batch still resolves.
func TestIndexLocateBatchPartialErrors(t *testing.T) {
	idx, ds := buildSmallIndex(t, fairindex.WithHeight(4))
	nan := math.NaN()
	lats := []float64{ds.Records[0].Lat, nan, ds.Records[1].Lat, math.Inf(1), ds.Records[2].Lat}
	lons := []float64{ds.Records[0].Lon, ds.Records[0].Lon, nan, ds.Records[1].Lon, ds.Records[2].Lon}
	regions, err := idx.LocateBatch(lats, lons)
	if err == nil {
		t.Fatal("expected a joined error for the invalid points")
	}
	if len(regions) != len(lats) {
		t.Fatalf("got %d regions for %d points", len(regions), len(lats))
	}
	for _, bad := range []int{1, 2, 3} {
		if regions[bad] != fairindex.RegionInvalid {
			t.Errorf("point %d: region %d, want RegionInvalid", bad, regions[bad])
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("point %d", bad)) {
			t.Errorf("joined error misses point %d: %v", bad, err)
		}
	}
	for _, good := range []int{0, 4} {
		want, werr := idx.Locate(lats[good], lons[good])
		if werr != nil {
			t.Fatal(werr)
		}
		if regions[good] != want {
			t.Errorf("point %d: region %d, want %d despite sibling errors", good, regions[good], want)
		}
	}

	// An all-invalid flood keeps the joined error bounded.
	n := 10000
	floodLats := make([]float64, n)
	floodLons := make([]float64, n)
	for i := range floodLats {
		floodLats[i] = nan
	}
	regions, err = idx.LocateBatch(floodLats, floodLons)
	if err == nil {
		t.Fatal("expected error for all-invalid batch")
	}
	if len(err.Error()) > 4096 {
		t.Errorf("joined error not bounded: %d bytes", len(err.Error()))
	}
	for i, r := range regions {
		if r != fairindex.RegionInvalid {
			t.Fatalf("point %d: region %d, want RegionInvalid", i, r)
		}
	}
}

// TestIndexLocateBatchSharded runs a large batch with GOMAXPROCS
// above 1 and verifies it — including out-of-box and invalid points —
// is bit-identical to per-point Locate, with every error index the
// point's position in the whole batch.
func TestIndexLocateBatchSharded(t *testing.T) {
	idx, _ := buildSmallIndex(t, fairindex.WithHeight(5), fairindex.WithSeed(3))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	box := idx.Box()
	latSpan := box.MaxLat - box.MinLat
	lonSpan := box.MaxLon - box.MinLon
	const n = 120000
	lats := make([]float64, n)
	lons := make([]float64, n)
	for i := range lats {
		// Deterministic pseudo-random spread, ~10% outside the box.
		f := float64(i%997) / 997
		g := float64(i%613) / 613
		lats[i] = box.MinLat + (f*1.2-0.1)*latSpan
		lons[i] = box.MinLon + (g*1.2-0.1)*lonSpan
	}
	badEvery := 30011 // a handful of invalid points across shards
	for i := 0; i < n; i += badEvery {
		lats[i] = math.NaN()
	}
	regions, err := idx.LocateBatch(lats, lons)
	if err == nil {
		t.Fatal("expected joined error for the injected NaN points")
	}
	if len(regions) != n {
		t.Fatalf("got %d regions for %d points", len(regions), n)
	}
	for i := range regions {
		want, werr := idx.Locate(lats[i], lons[i])
		if werr != nil {
			if regions[i] != fairindex.RegionInvalid {
				t.Fatalf("point %d: region %d, want RegionInvalid", i, regions[i])
			}
			continue
		}
		if regions[i] != want {
			t.Fatalf("point %d: batch %d != single %d", i, regions[i], want)
		}
	}
	// Error indices are global, not shard-local.
	if !strings.Contains(err.Error(), fmt.Sprintf("point %d", badEvery)) {
		t.Errorf("joined error misses global point index %d: %v", badEvery, err)
	}

	// LocateBatchInto reuses the buffer and rejects a wrong-size one.
	if err := idx.LocateBatchInto(regions, lats, lons); err == nil {
		t.Error("expected joined error from LocateBatchInto as well")
	}
	if err := idx.LocateBatchInto(regions[:n-1], lats, lons); err == nil {
		t.Error("expected destination-size error")
	}
}

// TestIndexLocateBatchErrorHostIndependent pins a batch's joined error
// byte for byte at GOMAXPROCS 1 and 4: the first eight invalid points
// verbatim, then one summary line for the rest, whatever the host's
// core count.
func TestIndexLocateBatchErrorHostIndependent(t *testing.T) {
	idx, _ := buildSmallIndex(t, fairindex.WithHeight(5), fairindex.WithSeed(3))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	box := idx.Box()
	const n, badEvery = 120000, 6000
	lats := make([]float64, n)
	lons := make([]float64, n)
	for i := range lats {
		lats[i] = box.MinLat + float64(i%997)/997*(box.MaxLat-box.MinLat)
		lons[i] = box.MinLon + float64(i%613)/613*(box.MaxLon-box.MinLon)
	}
	var lines []string
	for i := 0; i < n; i += badEvery {
		lats[i] = math.NaN()
		if len(lines) < 8 {
			lines = append(lines, fmt.Sprintf("fairindex: point %d: non-finite coordinate (NaN, %v)", i, lons[i]))
		}
	}
	lines = append(lines, "fairindex: 12 further invalid points")
	want := strings.Join(lines, "\n")
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		if _, err := idx.LocateBatch(lats, lons); err == nil || err.Error() != want {
			t.Errorf("GOMAXPROCS=%d: error:\n%v\nwant:\n%s", procs, err, want)
		}
	}
}

func TestIndexLocateClampsAndRejectsNonFinite(t *testing.T) {
	idx, _ := buildSmallIndex(t, fairindex.WithHeight(3))
	box := idx.Box()
	// Far outside the box clamps to a border region, never errors.
	if _, err := idx.Locate(box.MinLat-10, box.MinLon-10); err != nil {
		t.Errorf("clamped locate: %v", err)
	}
	// Coordinates far enough out to overflow an int conversion still
	// clamp to the far edge, per point and in a batch.
	g := idx.Grid()
	far := []struct {
		lat, lon float64
		cell     fairindex.Cell
	}{
		{1e300, -1e300, fairindex.Cell{Row: g.U - 1, Col: 0}},
		{-1e300, 1e300, fairindex.Cell{Row: 0, Col: g.V - 1}},
		{1e300, 1e300, fairindex.Cell{Row: g.U - 1, Col: g.V - 1}},
	}
	for _, p := range far {
		want, err := idx.LocateCell(p.cell)
		if err != nil {
			t.Fatal(err)
		}
		got, err := idx.Locate(p.lat, p.lon)
		if err != nil || got != want {
			t.Errorf("Locate(%g, %g) = %d, %v; want %d (cell %v)", p.lat, p.lon, got, err, want, p.cell)
		}
		batch, err := idx.LocateBatch([]float64{p.lat}, []float64{p.lon})
		if err != nil || batch[0] != want {
			t.Errorf("LocateBatch(%g, %g) = %v, %v; want %d", p.lat, p.lon, batch, err, want)
		}
	}
	nan := 0.0
	nan = nan / nan
	if _, err := idx.Locate(nan, 0); err == nil {
		t.Error("expected error for NaN latitude")
	}
}

func TestIndexScoreInRange(t *testing.T) {
	for _, model := range []fairindex.ModelKind{
		fairindex.ModelLogReg, fairindex.ModelDecisionTree, fairindex.ModelNaiveBayes,
	} {
		idx, ds := buildSmallIndex(t, fairindex.WithHeight(4), fairindex.WithModel(model), fairindex.WithSeed(2))
		for i := 0; i < 25; i++ {
			s, err := idx.Score(ds.Records[i], 0)
			if err != nil {
				t.Fatal(err)
			}
			if s < 0 || s > 1 {
				t.Fatalf("model %v record %d: score %v outside [0,1]", model, i, s)
			}
		}
		bad := ds.Records[0]
		bad.X = bad.X[:1]
		if _, err := idx.Score(bad, 0); err == nil {
			t.Error("expected feature-width error")
		}
	}
}

// TestRoundTripKeepsStoredCentroids pins that the codec writes the
// centroids it read: an artifact whose stored centroid bits differ
// from what its cell table recomputes (patched here the way a hand
// edit would) re-marshals byte for byte, so its fingerprint is the
// hash of its file.
func TestRoundTripKeepsStoredCentroids(t *testing.T) {
	idx, _ := buildSmallIndex(t, fairindex.WithHeight(3), fairindex.WithSeed(1))
	blob, err := idx.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	c, err := idx.Centroid(0)
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
	if got, _ := edited.Centroid(0); got[0] != c[0]+1e-9 {
		t.Fatalf("loaded centroid %v, want the stored %v", got[0], c[0]+1e-9)
	}
	again, err := edited.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatal("re-marshaled artifact differs from the file it was loaded from")
	}
	h := fnv.New64a()
	h.Write(blob)
	if fp, err := edited.Fingerprint(); err != nil || fp != h.Sum64() {
		t.Errorf("fingerprint %x (err %v), want the file's hash %x", fp, err, h.Sum64())
	}
}

func TestIndexBinaryRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		opts []fairindex.Option
	}{
		{"fair-logreg", []fairindex.Option{fairindex.WithHeight(5), fairindex.WithSeed(1)}},
		{"fair-dtree-platt", []fairindex.Option{
			fairindex.WithHeight(4), fairindex.WithModel(fairindex.ModelDecisionTree),
			fairindex.WithPostProcess(fairindex.PostPlatt), fairindex.WithSeed(2)}},
		{"multi-objective", []fairindex.Option{
			fairindex.WithMethod(fairindex.MethodMultiObjectiveFairKD),
			fairindex.WithHeight(4), fairindex.WithAlphas(0.7, 0.3), fairindex.WithSeed(3)}},
		{"zipcode-isotonic", []fairindex.Option{
			fairindex.WithMethod(fairindex.MethodZipCode), fairindex.WithZipSites(12),
			fairindex.WithPostProcess(fairindex.PostIsotonic), fairindex.WithSeed(4)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			idx, ds := buildSmallIndex(t, tc.opts...)
			blob, err := idx.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var back fairindex.Index
			if err := back.UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}

			if back.NumRegions() != idx.NumRegions() {
				t.Fatalf("regions %d != %d", back.NumRegions(), idx.NumRegions())
			}
			if back.Method() != idx.Method() || back.Height() != idx.Height() || back.Model() != idx.Model() {
				t.Error("metadata mismatch after round trip")
			}
			if back.DatasetName() != idx.DatasetName() {
				t.Errorf("dataset name %q != %q", back.DatasetName(), idx.DatasetName())
			}

			// Identical Locate and Score outputs on every record.
			for i, rec := range ds.Records {
				r0, err := idx.Locate(rec.Lat, rec.Lon)
				if err != nil {
					t.Fatal(err)
				}
				r1, err := back.Locate(rec.Lat, rec.Lon)
				if err != nil {
					t.Fatal(err)
				}
				if r0 != r1 {
					t.Fatalf("record %d: Locate %d != %d after round trip", i, r1, r0)
				}
				for _, task := range idx.Tasks() {
					s0, err := idx.Score(rec, task)
					if err != nil {
						t.Fatal(err)
					}
					s1, err := back.Score(rec, task)
					if err != nil {
						t.Fatal(err)
					}
					if s0 != s1 {
						t.Fatalf("record %d task %d: Score %v != %v after round trip", i, task, s1, s0)
					}
				}
			}

			// Stored reports survive, including NaN-able ratio fields.
			for _, task := range idx.Tasks() {
				want, err := idx.Report(task)
				if err != nil {
					t.Fatal(err)
				}
				got, err := back.Report(task)
				if err != nil {
					t.Fatal(err)
				}
				if got.TaskName != want.TaskName || got.ENCE != want.ENCE || got.Accuracy != want.Accuracy {
					t.Errorf("task %d report changed: %+v vs %+v", task, got, want)
				}
				if len(got.TopNeighborhoods) != len(want.TopNeighborhoods) {
					t.Errorf("task %d: %d neighborhoods, want %d", task, len(got.TopNeighborhoods), len(want.TopNeighborhoods))
				}
			}
		})
	}
}

func TestIndexUnmarshalCorrupt(t *testing.T) {
	idx, _ := buildSmallIndex(t, fairindex.WithHeight(3))
	blob, err := idx.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{nil, []byte("nope"), blob[:8], blob[:len(blob)-20],
		append(append([]byte(nil), blob...), 0xAB, 0xCD)} {
		var back fairindex.Index
		if err := back.UnmarshalBinary(bad); !errors.Is(err, fairindex.ErrIndexFormat) {
			t.Errorf("corrupt input %d bytes: err = %v, want ErrIndexFormat", len(bad), err)
		}
	}
	// Flipped version byte.
	vers := append([]byte(nil), blob...)
	vers[4] = 0x7E
	var back fairindex.Index
	if err := back.UnmarshalBinary(vers); !errors.Is(err, fairindex.ErrIndexFormat) {
		t.Errorf("bad version: err = %v, want ErrIndexFormat", err)
	}
}

// TestIndexConcurrentLookup proves the Index is safe for concurrent
// readers; run it under -race to catch data races on the hot path.
func TestIndexConcurrentLookup(t *testing.T) {
	idx, ds := buildSmallIndex(t, fairindex.WithHeight(5), fairindex.WithSeed(7))
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rec := ds.Records[(w*perWorker+i)%ds.Len()]
				if _, err := idx.Locate(rec.Lat, rec.Lon); err != nil {
					errs <- err
					return
				}
				if _, err := idx.Score(rec, 0); err != nil {
					errs <- err
					return
				}
				if _, err := idx.Report(0); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestBuildOptionValidation(t *testing.T) {
	ds := smallLA(t)
	cases := []struct {
		name string
		opts []fairindex.Option
	}{
		{"negative height", []fairindex.Option{fairindex.WithHeight(-1)}},
		{"negative task", []fairindex.Option{fairindex.WithTask(-2)}},
		{"bad test frac", []fairindex.Option{fairindex.WithTestFrac(1.5)}},
		{"zero test frac", []fairindex.Option{fairindex.WithTestFrac(0)}},
		{"empty alphas", []fairindex.Option{fairindex.WithAlphas()}},
		{"alphas on single-objective", []fairindex.Option{
			fairindex.WithMethod(fairindex.MethodFairKD), fairindex.WithAlphas(0.5, 0.5)}},
		{"bad zip sites", []fairindex.Option{fairindex.WithZipSites(0)}},
		{"bad ece bins", []fairindex.Option{fairindex.WithECEBins(-3)}},
		{"bad post process", []fairindex.Option{fairindex.WithPostProcess(fairindex.PostProcess(9))}},
		{"nil option", []fairindex.Option{nil}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := fairindex.Build(ds, tc.opts...); !errors.Is(err, fairindex.ErrConfig) {
				t.Errorf("err = %v, want ErrConfig", err)
			}
		})
	}
}

func TestBuildWithConfigBridge(t *testing.T) {
	ds := smallLA(t)
	cfg := fairindex.Config{Method: fairindex.MethodMedianKD, Height: 4, Seed: 9}
	idx, err := fairindex.Build(ds, fairindex.WithConfig(cfg), fairindex.WithHeight(3))
	if err != nil {
		t.Fatal(err)
	}
	if idx.Method() != fairindex.MethodMedianKD {
		t.Errorf("method = %v", idx.Method())
	}
	if idx.Height() != 3 {
		t.Errorf("height = %d, want the later option to win", idx.Height())
	}
}

// TestRunMatchesBuildReport pins the compatibility shim: Run must
// report exactly what Build stores.
func TestRunMatchesBuildReport(t *testing.T) {
	ds := smallLA(t)
	cfg := fairindex.Config{Method: fairindex.MethodFairKD, Height: 5, Seed: 1}
	res, err := fairindex.Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := fairindex.Build(ds, fairindex.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := idx.Report(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ENCE != res.Tasks[0].ENCE || rep.Accuracy != res.Tasks[0].Accuracy || rep.AUC != res.Tasks[0].AUC {
		t.Errorf("Build report %+v diverges from Run %+v", rep, res.Tasks[0])
	}
	if idx.NumRegions() != res.NumRegions {
		t.Errorf("regions %d != %d", idx.NumRegions(), res.NumRegions)
	}
}
