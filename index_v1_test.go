package fairindex

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"fairindex/internal/binenc"
	"fairindex/internal/dataset"
	"fairindex/internal/geo"
	"fairindex/internal/ml"
)

// marshalBinaryV1 reproduces the pre-query-engine v1 serialization
// byte for byte: no acceleration section, no per-region stats,
// version tag 1. It pins the decoder's backward-compatibility branch
// now that MarshalBinary writes v2.
func marshalBinaryV1(ix *Index) ([]byte, error) {
	b := append([]byte(nil), indexMagic[:]...)
	b = binenc.AppendUvarint(b, indexVersionV1)

	b = binenc.AppendVarint(b, int64(ix.cfg.Method))
	b = binenc.AppendVarint(b, int64(ix.cfg.Height))
	b = binenc.AppendVarint(b, int64(ix.cfg.Model))
	b = binenc.AppendVarint(b, int64(ix.cfg.Encoding))
	b = binenc.AppendVarint(b, int64(ix.cfg.Task))
	b = binenc.AppendFloat64s(b, ix.cfg.Alphas)
	b = binenc.AppendVarint(b, int64(ix.cfg.Objective))
	b = binenc.AppendFloat64(b, ix.cfg.Lambda)
	b = binenc.AppendFloat64(b, ix.cfg.TestFrac)
	b = binenc.AppendVarint(b, ix.cfg.Seed)
	b = binenc.AppendVarint(b, int64(ix.cfg.ZipSites))
	b = binenc.AppendVarint(b, int64(ix.cfg.ECEBins))
	b = binenc.AppendBool(b, ix.cfg.Reweight)
	b = binenc.AppendVarint(b, int64(ix.cfg.PostProcess))

	b = binenc.AppendString(b, ix.datasetName)
	b = binenc.AppendStrings(b, ix.featureNames)
	b = binenc.AppendStrings(b, ix.taskNames)
	b = binenc.AppendFloat64(b, ix.box.MinLat)
	b = binenc.AppendFloat64(b, ix.box.MinLon)
	b = binenc.AppendFloat64(b, ix.box.MaxLat)
	b = binenc.AppendFloat64(b, ix.box.MaxLon)

	b = binenc.AppendVarint(b, int64(ix.grid.U))
	b = binenc.AppendVarint(b, int64(ix.grid.V))
	b = binenc.AppendVarint(b, int64(ix.numRegions))
	b = binenc.AppendInts(b, ix.cellRegion)
	b = binenc.AppendUvarint(b, uint64(2*len(ix.centroids)))
	for _, c := range ix.centroids {
		b = binenc.AppendFloat64(b, c[0])
		b = binenc.AppendFloat64(b, c[1])
	}

	b = binenc.AppendVarint(b, int64(ix.buildTime))
	b = binenc.AppendVarint(b, int64(ix.trainTime))

	b = binenc.AppendUvarint(b, uint64(len(ix.tasks)))
	for i := range ix.tasks {
		it := &ix.tasks[i]
		b = binenc.AppendVarint(b, int64(it.task))
		model, err := ml.MarshalClassifier(it.model)
		if err != nil {
			return nil, fmt.Errorf("fairindex: task %d: %w", it.task, err)
		}
		b = binenc.AppendBytes(b, model)
		b = binenc.AppendUvarint(b, uint64(len(it.post)))
		if len(it.post) > 0 {
			refOf := make(map[ml.ScoreCalibrator]int, 4)
			var distinct [][]byte
			refs := make([]int, len(it.post))
			for r, cal := range it.post {
				ref, seen := refOf[cal]
				if !seen {
					blob, err := ml.MarshalCalibrator(cal)
					if err != nil {
						return nil, err
					}
					ref = len(distinct)
					distinct = append(distinct, blob)
					refOf[cal] = ref
				}
				refs[r] = ref
			}
			b = binenc.AppendUvarint(b, uint64(len(distinct)))
			for _, blob := range distinct {
				b = binenc.AppendBytes(b, blob)
			}
			for _, ref := range refs {
				b = binenc.AppendUvarint(b, uint64(ref))
			}
		}
		b = appendTaskResult(b, &it.report)
	}
	return b, nil
}

func buildV1TestIndex(t *testing.T) *Index {
	t.Helper()
	spec := dataset.LA()
	spec.NumRecords = 300
	ds, err := dataset.Generate(spec, geo.MustGrid(32, 32))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(ds, WithHeight(5), WithPostProcess(PostPlatt))
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// TestUnmarshalV1Artifact pins that pre-v2 .fidx files still load:
// point lookups and scores are unchanged, the query acceleration
// structures are recomputed to the exact structures a fresh build
// derives, and only GroupStats — whose per-region statistics a v1
// file never carried — degrades, with a distinct error.
func TestUnmarshalV1Artifact(t *testing.T) {
	idx := buildV1TestIndex(t)
	blob, err := marshalBinaryV1(idx)
	if err != nil {
		t.Fatal(err)
	}
	var back Index
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatalf("v1 artifact failed to load: %v", err)
	}

	// Locate parity over the whole grid.
	for i := 0; i < back.grid.NumCells(); i++ {
		c := back.grid.CellAt(i)
		r0, err0 := idx.LocateCell(c)
		r1, err1 := back.LocateCell(c)
		if err0 != nil || err1 != nil || r0 != r1 {
			t.Fatalf("cell %v: %d/%v vs %d/%v", c, r0, err0, r1, err1)
		}
	}

	// Recomputed acceleration structures match the built ones exactly.
	if !reflect.DeepEqual(back.regionRects, idx.regionRects) {
		t.Error("v1 load: region bounding rects diverge from a fresh build")
	}
	if !reflect.DeepEqual(back.regionCells, idx.regionCells) {
		t.Error("v1 load: region cell counts diverge from a fresh build")
	}
	if !reflect.DeepEqual(back.knnOrder, idx.knnOrder) {
		t.Error("v1 load: centroid kd layout diverges from a fresh build")
	}

	// Range and kNN queries work on the restored index.
	box := back.box
	got, err := back.RangeQuery(box)
	if err != nil {
		t.Fatal(err)
	}
	want, err := idx.RangeQuery(box)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("v1 load: RangeQuery diverges")
	}
	n0, err := back.NearestRegions(box.MinLat, box.MinLon, 3)
	if err != nil {
		t.Fatal(err)
	}
	n1, err := idx.NearestRegions(box.MinLat, box.MinLon, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(n0, n1) {
		t.Error("v1 load: NearestRegions diverges")
	}

	// GroupStats is the only degraded surface.
	if _, err := back.GroupStats(0, []int{0}); !errors.Is(err, ErrNoRegionStats) {
		t.Errorf("GroupStats on v1 index err = %v, want ErrNoRegionStats", err)
	}

	// Re-saving a v1-loaded index produces a valid v2 artifact that
	// still carries no stats (absence is encoded, not invented).
	reblob, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var again Index
	if err := again.UnmarshalBinary(reblob); err != nil {
		t.Fatalf("re-saved v1 index failed to load: %v", err)
	}
	if _, err := again.GroupStats(0, []int{0}); !errors.Is(err, ErrNoRegionStats) {
		t.Errorf("re-saved index GroupStats err = %v, want ErrNoRegionStats", err)
	}
}

// TestUnmarshalRejectsCorruptAccel pins the v2 acceleration
// validation: a kd layout that is not a permutation must fail decode.
func TestUnmarshalRejectsCorruptAccel(t *testing.T) {
	idx := buildV1TestIndex(t)
	good := idx.knnOrder[0]
	idx.knnOrder[0] = idx.knnOrder[1] // duplicate entry
	blob, err := idx.MarshalBinary()
	idx.knnOrder[0] = good
	if err != nil {
		t.Fatal(err)
	}
	var back Index
	if err := back.UnmarshalBinary(blob); !errors.Is(err, ErrIndexFormat) {
		t.Errorf("corrupt kd layout err = %v, want ErrIndexFormat", err)
	}
}
