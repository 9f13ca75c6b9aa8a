package binenc

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	nan := math.NaN()
	var b []byte
	b = AppendUvarint(b, 0)
	b = AppendUvarint(b, 1<<40)
	b = AppendVarint(b, -12345)
	b = AppendBool(b, true)
	b = AppendFloat64(b, nan)
	b = AppendFloat64s(b, []float64{0, -1.5, math.Inf(1)})
	b = AppendInts(b, []int{3, -7, 0})
	b = AppendString(b, "héllo")
	b = AppendStrings(b, []string{"", "x"})
	b = AppendBytes(b, []byte{9, 8})

	r := NewReader(b)
	if got := r.Uvarint(); got != 0 {
		t.Errorf("uvarint = %d", got)
	}
	if got := r.Uvarint(); got != 1<<40 {
		t.Errorf("uvarint = %d", got)
	}
	if got := r.Varint(); got != -12345 {
		t.Errorf("varint = %d", got)
	}
	if !r.Bool() {
		t.Error("bool = false")
	}
	if got := r.Float64(); !math.IsNaN(got) {
		t.Errorf("float64 = %v, want NaN bits preserved", got)
	}
	fs := r.Float64s()
	if len(fs) != 3 || fs[1] != -1.5 || !math.IsInf(fs[2], 1) {
		t.Errorf("float64s = %v", fs)
	}
	is := r.Ints()
	if len(is) != 3 || is[1] != -7 {
		t.Errorf("ints = %v", is)
	}
	if got := r.String(); got != "héllo" {
		t.Errorf("string = %q", got)
	}
	ss := r.Strings()
	if len(ss) != 2 || ss[1] != "x" {
		t.Errorf("strings = %v", ss)
	}
	bs := r.Bytes()
	if len(bs) != 2 || bs[0] != 9 {
		t.Errorf("bytes = %v", bs)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Errorf("%d bytes left over", r.Len())
	}
}

// TestReaderCanonical pins what Canonical flags: a padded uvarint,
// varint or table entry, and a bool byte other than 0 or 1, each read
// with its value intact; everything the Append functions write reads
// as canonical.
func TestReaderCanonical(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 1<<40)
	b = AppendVarint(b, -12345)
	b = AppendBool(b, false)
	b = AppendBool(b, true)
	b = AppendInts(b, []int{0, 63, -64, 8191, 1 << 40})
	r := NewReader(b)
	r.Uvarint()
	r.Varint()
	r.Bool()
	r.Bool()
	r.Ints()
	if r.Err() != nil || !r.Canonical() {
		t.Fatalf("appended values: err %v, canonical %v", r.Err(), r.Canonical())
	}
	for _, c := range []struct {
		name string
		in   []byte
		read func(*Reader) int64
		want int64
	}{
		{"uvarint", []byte{0x85, 0x80, 0x00}, func(r *Reader) int64 { return int64(r.Uvarint()) }, 5},
		{"varint", []byte{0x83, 0x00}, (*Reader).Varint, -2},
		{"bool", []byte{2}, func(r *Reader) int64 {
			if r.Bool() {
				return 1
			}
			return 0
		}, 1},
		{"ints", paddedVarints[2], func(r *Reader) int64 { return int64(r.Ints()[8]) }, 8},
	} {
		r := NewReader(c.in)
		if got := c.read(r); got != c.want || r.Err() != nil || r.Canonical() {
			t.Errorf("%s %x: %d, err %v, canonical %v; want %d, nil, false", c.name, c.in, got, r.Err(), r.Canonical(), c.want)
		}
	}
}

func TestReaderTruncation(t *testing.T) {
	full := AppendFloat64s(nil, []float64{1, 2, 3})
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.Float64s()
		if r.Err() == nil {
			t.Errorf("cut at %d: expected error", cut)
		}
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader(nil)
	r.Uvarint() // fails
	first := r.Err()
	if first == nil {
		t.Fatal("expected error on empty input")
	}
	// Subsequent reads return zero values and keep the first error.
	if v := r.Float64(); v != 0 {
		t.Errorf("float64 after error = %v", v)
	}
	if r.Err() != first {
		t.Error("error was overwritten")
	}
}

func TestReaderRejectsHugeLengthPrefix(t *testing.T) {
	// A length prefix claiming 2^50 floats must fail fast, not
	// allocate.
	b := AppendUvarint(nil, 1<<50)
	r := NewReader(b)
	if fs := r.Float64s(); fs != nil || r.Err() == nil {
		t.Error("expected ErrTooLarge for oversized prefix")
	}
}

// referenceInts is the per-element Ints decoder the bulk loop
// replaced: one sticky-checked binary.Varint read per element, each
// checked for padding on its own. It is kept as the differential
// reference for FuzzReaderInts.
func referenceInts(r *Reader) []int {
	n := r.sliceLen(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		if r.err != nil {
			continue
		}
		v, m := binary.Varint(r.buf[r.off:])
		if m <= 0 {
			r.fail(fmt.Errorf("%w: varint at offset %d", ErrTruncated, r.off))
			continue
		}
		r.off += m
		if m > 1 && r.buf[r.off-1] == 0 {
			r.nonCanonical = true
		}
		out[i] = int(v)
	}
	if r.err != nil {
		return nil
	}
	return out
}

// overflowVarints are length-prefixed int tables whose last element
// is a 10- or 11-byte varint: the 10-byte ones at the edge of 64 bits
// decode, the rest overflow.
var overflowVarints = [][]byte{
	{2, 0x04, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},       // MinInt64
	{1, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},             // MaxInt64
	{1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00},             // 0, padded to 10 bytes
	{2, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},       // 10 bytes, overflows
	{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},       // 11 bytes
	{3, 0x01, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}, // 11 bytes
	{3, 0x02, 0x80},             // ends inside the second element
	{2, 0xff, 0x7f, 0x80, 0x01}, // two 2-byte varints
}

// paddedVarints are int tables holding a padded varint (a one-byte
// value in two bytes), which decodes but is not what AppendInts
// writes: alone, as the third of four two-byte varints in one 8-byte
// word, and after a group of eight one-byte varints.
var paddedVarints = [][]byte{
	{1, 0x82, 0x00},
	{4, 0x80, 0x01, 0x82, 0x01, 0x84, 0x00, 0x86, 0x01},
	{9, 1, 2, 3, 4, 5, 6, 7, 8, 0x90, 0x00},
}

// FuzzReaderInts holds the bulk Ints decoder to referenceInts: on any
// input both must give the same values, leave the same number of
// bytes unread, fail with the same error text, offset included, and
// report a padded varint alike.
// Every input is decoded as raw bytes, and as the AppendInts encoding
// of the int64s (8 bytes each) and of the int16s (2 bytes each) it
// spells, whole and cut at a data-chosen byte. The int16s give runs of
// one-, two- and three-byte varints, like a cell→region table.
func FuzzReaderInts(f *testing.F) {
	for _, seed := range slices.Concat(overflowVarints, paddedVarints) {
		f.Add(seed)
	}
	var edges []byte
	for _, v := range []int64{0, -1, 1, 63, -64, 64, 8191, -8192, 8192, math.MinInt64, math.MaxInt64} {
		edges = binary.LittleEndian.AppendUint64(edges, uint64(v))
	}
	f.Add(edges)
	f.Add(AppendInts(nil, []int{3, -7, 0, 4095, -4096, 1 << 40}))
	// Cell-table shapes: runs of one-byte ids, of two-byte ids, and
	// both mixed, followed by a second table, and cut mid-run. The
	// 47-entry tables end a few entries past a group of eight.
	var ones, twos, mixed []int
	for i := range 47 {
		ones = append(ones, i%64)
		twos = append(twos, 64+i*97%8000)
		mixed = append(mixed, i/3*37%300)
	}
	for _, xs := range [][]int{ones, twos, mixed} {
		enc := AppendInts(AppendInts(nil, xs), xs[:9])
		f.Add(enc)
		f.Add(enc[:len(enc)-3])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n := varint(data)
		if wv, wn := binary.Varint(data); v != wv || n != wn {
			t.Fatalf("varint(%x) = %d, %d; binary.Varint = %d, %d", data, v, n, wv, wn)
		}
		compareInts(t, data)

		wide := make([]int, len(data)/8)
		for i := range wide {
			wide[i] = int(int64(binary.LittleEndian.Uint64(data[8*i:])))
		}
		narrow := make([]int, len(data)/2)
		for i := range narrow {
			narrow[i] = int(int16(binary.LittleEndian.Uint16(data[2*i:])))
		}
		for _, xs := range [][]int{wide, narrow} {
			enc := AppendInts(nil, xs)
			if got := compareInts(t, enc); !slices.Equal(got, xs) {
				t.Fatalf("round trip of %v = %v", xs, got)
			}
			if r := NewReader(enc); r.Ints() != nil && !r.Canonical() {
				t.Fatalf("AppendInts(%v) decodes as padded", xs)
			}
			if len(data) > 0 {
				compareInts(t, enc[:int(data[0])%len(enc)])
			}
		}
	})
}

// compareInts decodes buf twice — two consecutive Ints tables and a
// trailing Varint, with the bulk loop and with the reference — and
// fails on any difference. It returns the bulk decoder's first table.
func compareInts(t *testing.T, buf []byte) []int {
	t.Helper()
	got, want := NewReader(buf), NewReader(buf)
	first := got.Ints()
	refFirst := referenceInts(want)
	second, refSecond := got.Ints(), referenceInts(want)
	tail, refTail := got.Varint(), want.Varint()
	if !slices.Equal(first, refFirst) || !slices.Equal(second, refSecond) || tail != refTail {
		t.Fatalf("%x: bulk decoded %v %v %d, reference %v %v %d", buf, first, second, tail, refFirst, refSecond, refTail)
	}
	if (first == nil) != (refFirst == nil) || (second == nil) != (refSecond == nil) {
		t.Fatalf("%x: nil-ness differs: bulk %v %v, reference %v %v", buf, first, second, refFirst, refSecond)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%x: bulk leaves %d bytes, reference %d", buf, got.Len(), want.Len())
	}
	if ge, we := fmt.Sprint(got.Err()), fmt.Sprint(want.Err()); ge != we {
		t.Fatalf("%x: bulk error %q, reference %q", buf, ge, we)
	}
	if got.Canonical() != want.Canonical() {
		t.Fatalf("%x: bulk canonical %v, reference %v", buf, got.Canonical(), want.Canonical())
	}
	return first
}

// TestFloat64Pairs pins that Float64Pairs reads what Float64s reads:
// the same values, pairwise, the same unread length and the same
// error on a bad prefix. An odd count is reported, not decoded.
func TestFloat64Pairs(t *testing.T) {
	for _, fs := range [][]float64{nil, {1.5, -2}, {0, math.Inf(-1), 3, 4}, {1, 2, 3}} {
		b := AppendFloat64(AppendFloat64s(nil, fs), 9)
		flat, pairs := NewReader(b), NewReader(b)
		want := flat.Float64s()
		got, values := pairs.Float64Pairs()
		if values != len(fs) {
			t.Errorf("%v: %d values, want %d", fs, values, len(fs))
		}
		if len(fs)%2 != 0 {
			if got != nil {
				t.Errorf("%v: odd count decoded as %v", fs, got)
			}
		} else {
			for i, p := range got {
				if p != [2]float64{want[2*i], want[2*i+1]} {
					t.Errorf("%v: pair %d = %v", fs, i, p)
				}
			}
			if len(got) != len(want)/2 {
				t.Errorf("%v: %d pairs", fs, len(got))
			}
		}
		if pairs.Len() != flat.Len() || pairs.Float64() != 9 || pairs.Err() != nil {
			t.Errorf("%v: reader not left after the values", fs)
		}
	}
	full := AppendFloat64s(nil, []float64{1, 2, 3, 4})
	for cut := 0; cut < len(full); cut++ {
		flat, pairs := NewReader(full[:cut]), NewReader(full[:cut])
		flat.Float64s()
		if got, _ := pairs.Float64Pairs(); got != nil || fmt.Sprint(pairs.Err()) != fmt.Sprint(flat.Err()) {
			t.Errorf("cut at %d: pairs %v, error %v, want %v", cut, got, pairs.Err(), flat.Err())
		}
	}
}
