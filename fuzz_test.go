package fairindex

import (
	"bytes"
	"testing"

	"fairindex/internal/dataset"
	"fairindex/internal/geo"
)

// buildFuzzSeedIndex builds the small-but-complete artifact the fuzz
// seeds derive from: multiple tasks would be overkill, but Platt
// post-processing makes the calibrator reference table part of the
// byte stream, so mutations reach every decode branch.
func buildFuzzSeedIndex(tb testing.TB) *Index {
	tb.Helper()
	spec := dataset.LA()
	spec.NumRecords = 200
	ds, err := dataset.Generate(spec, geo.MustGrid(8, 8))
	if err != nil {
		tb.Fatal(err)
	}
	idx, err := Build(ds, WithHeight(3), WithSeed(11), WithPostProcess(PostPlatt))
	if err != nil {
		tb.Fatal(err)
	}
	return idx
}

// FuzzUnmarshalBinary is the codec's crash-safety proof: arbitrary
// bytes — including bit flips and truncations of genuine v1 and v2
// artifacts — must either decode into a fully usable Index or return
// an error. Panics, runaway allocations and out-of-range table
// accesses after a "successful" decode are all failures. The
// checked-in corpus under testdata/fuzz/FuzzUnmarshalBinary (real
// marshaled artifacts; regenerate with go test -run TestRegenTestdata
// and FAIRINDEX_REGEN=1) is extended here with fresh builds so the
// seeds track the current codec even before the corpus is refreshed.
func FuzzUnmarshalBinary(f *testing.F) {
	idx := buildFuzzSeedIndex(f)
	v2, err := idx.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	v1, err := marshalBinaryV1(idx)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	f.Add(v1)
	// Structured corruption: truncations at section-ish boundaries and
	// single-byte flips give the mutator a head start over random noise.
	for _, cut := range []int{0, 4, 5, len(v2) / 4, len(v2) / 2, len(v2) - 1} {
		if cut <= len(v2) {
			f.Add(append([]byte(nil), v2[:cut]...))
		}
	}
	for _, pos := range []int{4, 8, len(v2) / 3, 2 * len(v2) / 3} {
		mut := append([]byte(nil), v2...)
		mut[pos] ^= 0xff
		f.Add(mut)
	}
	// Non-canonical encodings of the v2 seed: they decode, and their
	// generation must still be FNV-1a of MarshalBinary, not of the
	// bytes read.
	for _, v := range nonCanonicalVariants(f, v2) {
		f.Add(v)
	}
	// Counts past MaxInt: they are rejected, not decoded as none.
	for _, v := range outOfRangeCounts(f, v2) {
		f.Add(v)
	}
	f.Add([]byte("FIDX"))
	f.Add([]byte("FIDX\x7f")) // unsupported version
	f.Add([]byte("not an index at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var ix Index
		if err := ix.UnmarshalBinary(data); err != nil {
			return // rejected input is the expected outcome
		}
		// The decoder accepted the bytes, so the artifact must honor
		// the Index contract end to end — a decode that passes but
		// leaves booby-trapped tables behind is the bug class this
		// fuzz target exists to catch.
		box := ix.Box()
		midLat := (box.MinLat + box.MaxLat) / 2
		midLon := (box.MinLon + box.MaxLon) / 2
		region, err := ix.Locate(midLat, midLon)
		if err != nil {
			t.Fatalf("decoded index rejects in-box Locate: %v", err)
		}
		if region < 0 || region >= ix.NumRegions() {
			t.Fatalf("Locate region %d outside [0,%d)", region, ix.NumRegions())
		}
		if _, err := ix.RangeQuery(box); err != nil {
			t.Fatalf("decoded index rejects full-box RangeQuery: %v", err)
		}
		if _, err := ix.NearestRegions(midLat, midLon, 3); err != nil {
			t.Fatalf("decoded index rejects NearestRegions: %v", err)
		}
		for _, task := range ix.Tasks() {
			if _, err := ix.Report(task); err != nil {
				t.Fatalf("decoded index rejects Report(%d): %v", task, err)
			}
			// GroupStats may legitimately fail (v1 artifacts carry no
			// region stats) — it must only never panic.
			_, _ = ix.GroupStats(task, []int{region})
		}
		if _, err := ix.MarshalBinary(); err != nil {
			t.Fatalf("decoded index does not re-marshal: %v", err)
		}

		// Exactness oracle: the generation is FNV-1a of MarshalBinary
		// whether UnmarshalBinary or ReadIndex decoded the bytes.
		// ReadIndex keeps its buffer to hash exactly when the bytes are
		// what MarshalBinary writes.
		blob, err := ix.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		read, err := ReadIndex(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("ReadIndex rejects what UnmarshalBinary accepts: %v", err)
		}
		if kept, same := read.maint.loaded != nil, bytes.Equal(data, blob); kept != same {
			t.Fatalf("ReadIndex kept its buffer: %v, bytes equal MarshalBinary: %v", kept, same)
		}
		want := fnv64a(blob)
		for name, x := range map[string]*Index{"UnmarshalBinary": &ix, "ReadIndex": read} {
			if fp, err := x.Fingerprint(); err != nil || fp != want {
				t.Fatalf("%s: fingerprint %x, %v; want FNV-1a of MarshalBinary %x", name, fp, err, want)
			}
		}
	})
}
