package fairindex

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadIndexErrors pins the exact error text LoadIndex returns for
// files it cannot restore: how the path, the read and the decoder's
// message (offsets included) are joined is part of what operators grep
// for, so a faster read or decode path must keep it byte for byte.
// "PATH" stands for the file's path in the expected texts.
func TestLoadIndexErrors(t *testing.T) {
	dir := t.TempDir()
	check := func(t *testing.T, path, want string) {
		t.Helper()
		idx, err := LoadIndex(path)
		if err == nil {
			t.Fatalf("LoadIndex(%s) = %v, want an error", path, idx)
		}
		if idx != nil {
			t.Errorf("LoadIndex(%s) returned a non-nil Index with its error", path)
		}
		if got := strings.ReplaceAll(err.Error(), path, "PATH"); got != want {
			t.Errorf("LoadIndex error\n got %q\nwant %q", got, want)
		}
	}

	t.Run("missing", func(t *testing.T) {
		check(t, filepath.Join(dir, "missing.fidx"), "fairindex: open PATH: no such file or directory")
	})
	t.Run("directory", func(t *testing.T) {
		check(t, dir, "PATH: fairindex: reading index: read PATH: is a directory")
	})
	t.Run("empty", func(t *testing.T) {
		path := filepath.Join(dir, "empty.fidx")
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, path, "PATH: fairindex: invalid index encoding: bad magic")
	})

	// The v2 golden artifact cut at every 97th byte: the cuts land in
	// the header, the cell→region table, the acceleration section, the
	// model and calibrator blobs, the metric report and the stats.
	blob, err := os.ReadFile(filepath.Join("testdata", "golden_v2.fidx"))
	if err != nil {
		t.Fatal(err)
	}
	truncated := []struct {
		cut  int
		want string
	}{
		{0, "PATH: fairindex: invalid index encoding: bad magic"},
		{97, "PATH: fairindex: invalid index encoding: binenc: declared length exceeds input: 13 elements declared, 1 bytes left"},
		{194, "PATH: fairindex: invalid index encoding: binenc: declared length exceeds input: 64 elements declared, 15 bytes left"},
		{291, "PATH: fairindex: invalid index encoding: binenc: declared length exceeds input: 16 elements declared, 47 bytes left"},
		{388, "PATH: fairindex: invalid index encoding: acceleration: binenc: truncated input: varint at offset 384"},
		{485, "PATH: fairindex: invalid index encoding: task 0: binenc: declared length exceeds input: 390 elements declared, 51 bytes left"},
		{582, "PATH: fairindex: invalid index encoding: task 0: binenc: declared length exceeds input: 390 elements declared, 148 bytes left"},
		{679, "PATH: fairindex: invalid index encoding: task 0: binenc: declared length exceeds input: 390 elements declared, 245 bytes left"},
		{776, "PATH: fairindex: invalid index encoding: task 0: binenc: declared length exceeds input: 390 elements declared, 342 bytes left"},
		{873, "PATH: fairindex: invalid index encoding: task 0 calibrator 1: binenc: declared length exceeds input: 27 elements declared, 18 bytes left"},
		{970, "PATH: fairindex: invalid index encoding: task 0 calibrator 5: binenc: declared length exceeds input: 27 elements declared, 3 bytes left"},
		{1067, "PATH: fairindex: invalid index encoding: task 0 report: binenc: truncated input: float64 at offset 1059"},
		{1164, "PATH: fairindex: invalid index encoding: task 0 report: binenc: truncated input: float64 at offset 1160"},
		{1261, "PATH: fairindex: invalid index encoding: task 0 report: binenc: truncated input: float64 at offset 1252"},
		{1358, "PATH: fairindex: invalid index encoding: task 0 report: binenc: truncated input: float64 at offset 1354"},
		{1455, "PATH: fairindex: invalid index encoding: task 0 report: binenc: declared length exceeds input: 16 elements declared, 13 bytes left"},
		{1552, "PATH: fairindex: invalid index encoding: task 0 report: binenc: declared length exceeds input: 6 elements declared, 16 bytes left"},
		{1649, "PATH: fairindex: invalid index encoding: task 0 stats: binenc: truncated input: float64 at offset 1641"},
	}
	var cuts int
	for cut := 0; cut < len(blob); cut += 97 {
		cuts++
	}
	if cuts != len(truncated) {
		t.Fatalf("golden artifact has %d cuts at every 97th byte, table pins %d", cuts, len(truncated))
	}
	path := filepath.Join(dir, "truncated.fidx")
	for _, tc := range truncated {
		if err := os.WriteFile(path, blob[:tc.cut], 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, path, tc.want)
	}
}
