package fairindex

import (
	"bytes"
	"runtime"
	"testing"

	"fairindex/internal/dataset"
	"fairindex/internal/geo"
)

// streamTestCity renders a small city and its canonical CSV bytes.
func streamTestCity(t *testing.T, n int) (*Dataset, []byte) {
	t.Helper()
	spec := dataset.LA()
	spec.NumRecords = n
	ds, err := dataset.Generate(spec, geo.MustGrid(20, 20))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dataset.WriteCSV(ds, &buf); err != nil {
		t.Fatal(err)
	}
	return ds, buf.Bytes()
}

// marshalZeroTimings serializes an index with its wall-clock fields
// cleared, the same normalization the build-parity suite uses.
func marshalZeroTimings(t *testing.T, ix *Index) []byte {
	t.Helper()
	ix.buildTime, ix.trainTime = 0, 0
	blob, err := ix.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestBuildStreamParity is the streaming subsystem's acceptance gate:
// for every partition method and several heights, an index built from
// a chunked CSV stream must serialize to the exact bytes of an index
// built from the materialized dataset. The materialized side builds
// at GOMAXPROCS 1 and the streamed side at 3, so the parity also spans
// worker counts. (Odd batch boundaries are the internal/stream tests'
// subject: Ingest there matches ReadCSV at chunk sizes 1 and 300.)
func TestBuildStreamParity(t *testing.T) {
	ds, blob := streamTestCity(t, 420)
	methods := []Method{
		MethodMedianKD, MethodFairKD, MethodIterativeFairKD,
		MethodMultiObjectiveFairKD, MethodGridReweight, MethodZipCode,
		MethodFairQuadtree,
	}
	for _, m := range methods {
		for _, height := range []int{3, 6} {
			cfg := Config{Method: m, Height: height, Seed: 11}
			prev := runtime.GOMAXPROCS(1)
			mat, err := Build(ds, WithConfig(cfg))
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%v h=%d: Build: %v", m, height, err)
			}
			src, err := NewCSVSource(bytes.NewReader(blob), ds.Name, ds.Grid, ds.Box)
			if err != nil {
				t.Fatal(err)
			}
			prev = runtime.GOMAXPROCS(3)
			str, err := BuildStream(src, WithConfig(cfg))
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%v h=%d: BuildStream: %v", m, height, err)
			}
			matBytes := marshalZeroTimings(t, mat)
			strBytes := marshalZeroTimings(t, str)
			if !bytes.Equal(matBytes, strBytes) {
				at := 0
				for at < len(matBytes) && at < len(strBytes) && matBytes[at] == strBytes[at] {
					at++
				}
				t.Fatalf("%v h=%d: streamed .fidx (%d bytes) diverges from materialized (%d bytes) at offset %d",
					m, height, len(strBytes), len(matBytes), at)
			}
		}
	}
}

// TestBuildStreamFuncSourceParity extends byte parity to generator
// sources: records that never exist outside a batch still produce the
// identical artifact.
func TestBuildStreamFuncSourceParity(t *testing.T) {
	ds, _ := streamTestCity(t, 350)
	schema := StreamSchema{Name: ds.Name, Grid: ds.Grid, Box: ds.Box,
		FeatureNames: ds.FeatureNames, TaskNames: ds.TaskNames}
	src, err := NewFuncSource(schema, len(ds.Records), func(i int, rec *Record) error {
		r := &ds.Records[i]
		rec.ID, rec.Lat, rec.Lon = r.ID, r.Lat, r.Lon
		copy(rec.X, r.X)
		copy(rec.Labels, r.Labels)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Method: MethodFairKD, Height: 5, Seed: 7}
	mat, err := Build(ds, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	str, err := BuildStream(src, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalZeroTimings(t, mat), marshalZeroTimings(t, str)) {
		t.Fatal("generator-fed stream build diverges from materialized build")
	}
}

func TestBuildStreamOptionValidation(t *testing.T) {
	ds, _ := streamTestCity(t, 60)
	if _, err := BuildStream(NewDatasetSource(ds), WithHeight(-1)); err == nil {
		t.Error("negative height accepted")
	}
	if _, err := BuildStream(nil); err == nil {
		t.Error("nil source accepted")
	}
}
