package fairindex

import (
	"bytes"
	"errors"
	"hash/fnv"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"fairindex/internal/binenc"
	"fairindex/internal/ml"
)

// fnv64a is the definition of a generation token: the FNV-1a hash of
// an artifact's bytes.
func fnv64a(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// artifactOffsets are byte offsets into a v2 artifact, found by walking
// it with the decoder's own primitives.
type artifactOffsets struct {
	version, reweight, cellCount, firstCell int
	// The task count, task 0's length-prefixed model blob, its
	// calibrator count and its report's top-neighborhood count.
	tasks, model, numCal, neighborhoods int
	// Task 0's calibrator section: the distinct calibrator count, each
	// distinct calibrator blob as [start, end) with its length prefix,
	// and the per-region references as [refs, refsEnd).
	numDistinct   int
	calibrators   [][2]int
	refs, refsEnd int
}

func walkArtifact(tb testing.TB, blob []byte) artifactOffsets {
	tb.Helper()
	r := binenc.NewReader(blob[len(indexMagic):])
	at := func() int { return len(blob) - r.Len() }
	var o artifactOffsets
	o.version = at()
	r.Uvarint()
	for range 5 { // method, height, model, encoding, task
		r.Int()
	}
	r.Float64s() // alphas
	r.Int()      // objective
	r.Float64()  // lambda
	r.Float64()  // test fraction
	r.Varint()   // seed
	r.Int()      // zip sites
	r.Int()      // ECE bins
	o.reweight = at()
	r.Bool()
	r.Int()        // post-processing
	_ = r.String() // dataset name
	r.Strings()    // feature names
	r.Strings()    // task names
	for range 4 {  // box
		r.Float64()
	}
	r.Int() // grid rows
	r.Int() // grid columns
	regions := r.Int()
	o.cellCount = at()
	cells := r.Uvarint()
	o.firstCell = at()
	for range cells {
		r.Varint()
	}
	r.Float64s() // centroids
	for range 4 * regions {
		r.Int() // bounding rects
	}
	r.Ints()   // cell counts
	r.Ints()   // kd layout
	r.Varint() // build time
	r.Varint() // train time
	o.tasks = at()
	r.Uvarint()
	r.Int() // task id
	o.model = at()
	r.Bytes()
	o.numCal = at()
	if numCal := r.Uvarint(); numCal > 0 {
		o.numDistinct = at()
		for range r.Uvarint() {
			start := at()
			r.Bytes()
			o.calibrators = append(o.calibrators, [2]int{start, at()})
		}
		o.refs = at()
		for range numCal {
			r.Uvarint()
		}
		o.refsEnd = at()
	}
	r.Int()        // report task
	_ = r.String() // report task name
	for range 12 { // report metrics
		r.Float64()
	}
	o.neighborhoods = at()
	r.Uvarint()
	if err := r.Err(); err != nil {
		tb.Fatalf("walking the artifact: %v", err)
	}
	return o
}

// padVarint returns a copy of blob with the varint at off one byte
// longer: its last byte gains a continuation bit and a 0 byte follows,
// which decodes to the same value.
func padVarint(blob []byte, off int) []byte {
	end := off
	for blob[end] >= 0x80 {
		end++
	}
	out := append([]byte(nil), blob[:end]...)
	out = append(out, blob[end]|0x80, 0)
	return append(out, blob[end+1:]...)
}

// padBlobTag returns a copy of blob with the length-prefixed model or
// calibrator blob at off re-encoded with its one-byte tag padded and
// its length prefix grown to match.
func padBlobTag(blob []byte, off int) []byte {
	r := binenc.NewReader(blob[off:])
	inner := r.Bytes()
	out := binenc.AppendUvarint(append([]byte(nil), blob[:off]...), uint64(len(inner)+1))
	out = append(out, inner[0]|0x80, 0)
	out = append(out, inner[1:]...)
	return append(out, blob[len(blob)-r.Len():]...)
}

// nonCanonicalVariants returns copies of a canonical v2 artifact with
// a post-processed task 0 that decode but are not what MarshalBinary
// writes: a 2-byte version varint, a padded first cell id, a padded
// cell-table length prefix, a Reweight byte of 2, a padded model tag,
// a padded calibrator tag, a swapped calibrator table and an
// unreferenced calibrator.
func nonCanonicalVariants(tb testing.TB, blob []byte) [][]byte {
	tb.Helper()
	o := walkArtifact(tb, blob)
	reweight := append([]byte(nil), blob...)
	reweight[o.reweight] = 2
	return [][]byte{
		padVarint(blob, o.version),
		padVarint(blob, o.firstCell),
		padVarint(blob, o.cellCount),
		reweight,
		padBlobTag(blob, o.model),
		padBlobTag(blob, o.calibrators[0][0]),
		swapCalibrators(tb, blob),
		unreferencedCalibrator(tb, blob),
	}
}

// outOfRangeCounts returns copies of a canonical v2 artifact with a
// post-processed task 0 whose task count, task 0 calibrator count or
// task 0 top-neighborhood count is 2^63, each keyed by the error the
// decoder rejects it with. Such a count would convert to a negative
// int; the task count is followed by nothing, which would otherwise
// load as an Index with no tasks.
func outOfRangeCounts(tb testing.TB, blob []byte) map[string][]byte {
	tb.Helper()
	o := walkArtifact(tb, blob)
	const huge = 1 << 63
	setCount := func(off int) []byte {
		out := binenc.AppendUvarint(append([]byte(nil), blob[:off]...), huge)
		r := binenc.NewReader(blob[off:])
		r.Uvarint()
		return append(out, blob[len(blob)-r.Len():]...)
	}
	return map[string][]byte{
		"task count 9223372036854775808 out of range":                        binenc.AppendUvarint(append([]byte(nil), blob[:o.tasks]...), huge),
		"task 0: calibrator count 9223372036854775808 out of range":          setCount(o.numCal),
		"task 0 report: neighborhood count 9223372036854775808 out of range": setCount(o.neighborhoods),
	}
}

// TestDecodeRejectsOutOfRangeCounts pins that a count past MaxInt is
// an ErrIndexFormat error, through UnmarshalBinary and ReadIndex.
func TestDecodeRejectsOutOfRangeCounts(t *testing.T) {
	for msg, blob := range outOfRangeCounts(t, loadGolden(t, "golden_v2.fidx")) {
		want := ErrIndexFormat.Error() + ": " + msg
		var ix Index
		if err := ix.UnmarshalBinary(blob); !errors.Is(err, ErrIndexFormat) || err.Error() != want {
			t.Errorf("UnmarshalBinary: %v, want %q", err, want)
		}
		if _, err := ReadIndex(bytes.NewReader(blob)); !errors.Is(err, ErrIndexFormat) || err.Error() != want {
			t.Errorf("ReadIndex: %v, want %q", err, want)
		}
	}
}

// swapCalibrators returns a copy of blob whose task-0 distinct
// calibrator table lists its first two calibrators the other way
// round, with every reference renumbered to match: the same Index,
// but its references are not in first-use order.
func swapCalibrators(tb testing.TB, blob []byte) []byte {
	tb.Helper()
	o := walkArtifact(tb, blob)
	if len(o.calibrators) < 2 {
		tb.Fatalf("task 0 has %d distinct calibrators, need 2", len(o.calibrators))
	}
	a, b := o.calibrators[0], o.calibrators[1]
	out := append([]byte(nil), blob[:a[0]]...)
	out = append(out, blob[b[0]:b[1]]...)
	out = append(out, blob[a[0]:a[1]]...)
	out = append(out, blob[b[1]:o.refs]...)
	r := binenc.NewReader(blob[o.refs:o.refsEnd])
	for r.Len() > 0 {
		ref := r.Uvarint()
		switch ref {
		case 0:
			ref = 1
		case 1:
			ref = 0
		}
		out = binenc.AppendUvarint(out, ref)
	}
	return append(out, blob[o.refsEnd:]...)
}

// unreferencedCalibrator returns a copy of blob whose task-0 distinct
// calibrator table ends with one more copy of its last calibrator,
// which no region references: it decodes to the same Index, and
// MarshalBinary drops the extra entry.
func unreferencedCalibrator(tb testing.TB, blob []byte) []byte {
	tb.Helper()
	o := walkArtifact(tb, blob)
	last := o.calibrators[len(o.calibrators)-1]
	out := binenc.AppendUvarint(append([]byte(nil), blob[:o.numDistinct]...), uint64(len(o.calibrators)+1))
	out = append(out, blob[o.calibrators[0][0]:o.refs]...)
	out = append(out, blob[last[0]:last[1]]...)
	return append(out, blob[o.refs:]...)
}

// TestFingerprintLoadedArtifact pins which bytes a loaded Index's
// generation hashes. A canonical current-version artifact read by
// ReadIndex or LoadIndex keeps its buffer and hashes it; a v1 file, a
// padded varint or a reordered calibrator table hashes MarshalBinary.
// Either way the fingerprint is FNV-1a of MarshalBinary, and appends
// do not move it.
func TestFingerprintLoadedArtifact(t *testing.T) {
	read := func(t *testing.T, blob []byte, keeps bool) *Index {
		t.Helper()
		ix, err := ReadIndex(bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		if kept := ix.maint.loaded != nil; kept != keeps {
			t.Fatalf("ReadIndex kept its buffer: %v, want %v", kept, keeps)
		}
		return ix
	}
	fingerprint := func(t *testing.T, ix *Index) uint64 {
		t.Helper()
		fp, err := ix.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if ix.maint.loaded != nil {
			t.Error("Fingerprint did not release the loaded buffer")
		}
		blob, err := ix.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if want := fnv64a(blob); fp != want {
			t.Errorf("fingerprint %x, want FNV-1a of MarshalBinary %x", fp, want)
		}
		return fp
	}
	v2 := loadGolden(t, "golden_v2.fidx")

	t.Run("golden v2", func(t *testing.T) {
		ix, err := LoadIndex(filepath.Join("testdata", "golden_v2.fidx"))
		if err != nil {
			t.Fatal(err)
		}
		if ix.maint.loaded == nil {
			t.Fatal("LoadIndex kept no buffer for a canonical v2 file")
		}
		if fp := fingerprint(t, ix); fp != fnv64a(v2) {
			t.Errorf("fingerprint %x, want the file's %x", fp, fnv64a(v2))
		}
	})
	t.Run("golden v1", func(t *testing.T) {
		ix, err := LoadIndex(filepath.Join("testdata", "golden_v1.fidx"))
		if err != nil {
			t.Fatal(err)
		}
		if ix.maint.loaded != nil {
			t.Fatal("LoadIndex kept the buffer of a v1 file")
		}
		if fp := fingerprint(t, ix); fp == fnv64a(loadGolden(t, "golden_v1.fidx")) {
			t.Error("v1 fingerprint hashes the file, want MarshalBinary's v2 bytes")
		}
	})
	t.Run("padded varint", func(t *testing.T) {
		padded := padVarint(v2, walkArtifact(t, v2).firstCell)
		if fp := fingerprint(t, read(t, padded, false)); fp != fnv64a(v2) {
			t.Errorf("fingerprint %x, want the unpadded file's %x", fp, fnv64a(v2))
		}
	})

	build, extra := splitCity(t, 1200, 200)
	idx, err := Build(build, WithHeight(5), WithSeed(11), WithPostProcess(PostPlatt))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := idx.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The same index with its regions alternating between two of its
	// calibrators: swapping that table gives references (1, 0, 1, ...)
	// that use every calibrator, yet out of first-use order.
	post := idx.tasks[0].post
	pair := [2]ml.ScoreCalibrator{post[0], post[slices.IndexFunc(post, func(c ml.ScoreCalibrator) bool { return c != post[0] })]}
	alt := *idx
	alt.tasks = append([]indexTask(nil), idx.tasks...)
	alt.tasks[0].post = make([]ml.ScoreCalibrator, len(post))
	for r := range alt.tasks[0].post {
		alt.tasks[0].post[r] = pair[r%2]
	}
	altBlob, err := alt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for name, parent := range map[string][]byte{"built": blob, "two calibrators": altBlob} {
		t.Run("calibrator table/"+name, func(t *testing.T) {
			if fp := fingerprint(t, read(t, parent, true)); fp != fnv64a(parent) {
				t.Errorf("parent fingerprint %x, want the file's %x", fp, fnv64a(parent))
			}
			for variant, b := range map[string][]byte{
				"swapped":      swapCalibrators(t, parent),
				"unreferenced": unreferencedCalibrator(t, parent),
			} {
				if fp := fingerprint(t, read(t, b, false)); fp != fnv64a(parent) {
					t.Errorf("%s: fingerprint %x, want the parent's %x", variant, fp, fnv64a(parent))
				}
			}
		})
	}
	t.Run("concurrent", func(t *testing.T) {
		// The first Fingerprint hashes and releases the kept buffer
		// once, whichever of these calls gets there first.
		ix := read(t, blob, true)
		var wg sync.WaitGroup
		fps := make([]uint64, 8)
		for g := range fps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if g == 0 {
					if _, err := ix.AppendBatch(extra[:20]); err != nil {
						t.Error(err)
					}
				}
				fps[g], _ = ix.Fingerprint()
			}()
		}
		wg.Wait()
		for g, fp := range fps {
			if fp != fnv64a(blob) {
				t.Errorf("goroutine %d: fingerprint %x, want %x", g, fp, fnv64a(blob))
			}
		}
	})
	t.Run("append", func(t *testing.T) {
		first, appendedFirst := read(t, blob, true), read(t, blob, true)
		before := fingerprint(t, first)
		for _, ix := range []*Index{first, appendedFirst} {
			if _, err := ix.AppendBatch(extra); err != nil {
				t.Fatal(err)
			}
			if fp, err := ix.Fingerprint(); err != nil || fp != before || fp != fnv64a(blob) {
				t.Errorf("fingerprint after a %d-record append %x, %v; want %x", len(extra), fp, err, before)
			}
		}
	})
}
