package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	fairindex "fairindex"
	"fairindex/internal/binenc"
	"fairindex/internal/dataset"
	"fairindex/internal/geo"
)

// TestIngestMatchesBuild runs build and its streaming twin ingest on
// the same CSV with the same recipe flags: the two artifacts must be
// byte-identical apart from the embedded build and train timings.
func TestIngestMatchesBuild(t *testing.T) {
	dir := t.TempDir()
	spec := dataset.LA()
	spec.NumRecords = 300
	ds, err := dataset.Generate(spec, geo.MustGrid(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := dataset.WriteCSV(ds, &csv); err != nil {
		t.Fatal(err)
	}
	csvPath := filepath.Join(dir, "city.csv")
	if err := os.WriteFile(csvPath, csv.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	args := func(out string) []string {
		return []string{
			"-in", csvPath, "-out", out, "-grid", "16",
			"-method", "iterative", "-height", "4", "-seed", "3", "-post", "platt",
			"-minlat", fmtF(ds.Box.MinLat), "-maxlat", fmtF(ds.Box.MaxLat),
			"-minlon", fmtF(ds.Box.MinLon), "-maxlon", fmtF(ds.Box.MaxLon),
		}
	}
	builtPath, ingestedPath := filepath.Join(dir, "built.fidx"), filepath.Join(dir, "ingested.fidx")
	if err := runBuildCmd(args(builtPath)); err != nil {
		t.Fatal(err)
	}
	if err := runIngestCmd(args(ingestedPath)); err != nil {
		t.Fatal(err)
	}

	built, builtIdx := readArtifact(t, builtPath)
	ingested, ingestedIdx := readArtifact(t, ingestedPath)
	bt, it := timingBytes(builtIdx), timingBytes(ingestedIdx)
	// The timings are the only varints allowed to differ: find the
	// offset where swapping the built artifact's timing bytes for the
	// ingested one's reproduces the ingested artifact exactly.
	for at := 0; at+len(bt) <= len(built) && at+len(it) <= len(ingested); at++ {
		if bytes.Equal(built[at:at+len(bt)], bt) && bytes.Equal(ingested[at:at+len(it)], it) &&
			bytes.Equal(built[at+len(bt):], ingested[at+len(it):]) {
			return
		}
		if built[at] != ingested[at] {
			break
		}
	}
	t.Fatalf("ingest artifact (%d bytes) differs from build's (%d bytes) beyond the timings",
		len(ingested), len(built))
}

// readArtifact returns an artifact file's bytes and its decoded index.
func readArtifact(t *testing.T, path string) ([]byte, *fairindex.Index) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := fairindex.LoadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	return blob, idx
}

// timingBytes is the encoding of an index's build and train timings,
// the two varints MarshalBinary writes back to back.
func timingBytes(idx *fairindex.Index) []byte {
	b := binenc.AppendVarint(nil, int64(idx.BuildTime()))
	return binenc.AppendVarint(b, int64(idx.TrainTime()))
}
