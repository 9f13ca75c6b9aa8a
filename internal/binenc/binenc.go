// Package binenc provides the compact binary encoding primitives
// shared by every serializable artifact in the library (trained
// classifiers, partitions and the public Index). Integers use
// varint/zig-zag encoding, floats are stored as their exact IEEE 754
// bits (so a round-trip reproduces bit-identical model outputs), and
// all aggregates are length-prefixed.
//
// Decoding goes through Reader, which carries a sticky error so call
// sites can chain reads and check once at the end. The bulk decoders
// (Ints, Float64s, Float64Pairs) read a whole length-prefixed slice in
// one loop rather than one checked read per element: the prefix is
// validated against the remaining input first, fixed-width values are
// then read without further checks, and Ints keeps its offset in a
// local, decodes eight one-byte or four two-byte varints per 8-byte
// word, and otherwise takes the same one-varint step as Varint. It
// stops at the first varint that cannot be decoded, with the error
// and offset that reading the elements one Int at a time reports.
// These loops carry an artifact load's large tables: the cell→region
// table, the per-region cell counts and the kd layout.
//
// The Append functions write one encoding per value: minimal varints
// and 0/1 bools. Reader accepts padded varints (a multi-byte varint
// whose last byte is 0) and any nonzero bool byte too, and Canonical
// reports whether it met either, so a caller can tell whether
// re-encoding what it decoded gives back the bytes it read.
package binenc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Decoding errors.
var (
	// ErrTruncated reports input that ended before the declared data.
	ErrTruncated = errors.New("binenc: truncated input")
	// ErrTooLarge reports a length prefix exceeding the remaining input.
	ErrTooLarge = errors.New("binenc: declared length exceeds input")
)

// AppendUvarint appends v in unsigned varint encoding.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendVarint appends v in zig-zag varint encoding.
func AppendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// AppendBool appends a single 0/1 byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat64 appends the exact IEEE 754 bits of f (little-endian).
func AppendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendFloat64s appends a length-prefixed float64 slice.
func AppendFloat64s(b []byte, fs []float64) []byte {
	b = AppendUvarint(b, uint64(len(fs)))
	for _, f := range fs {
		b = AppendFloat64(b, f)
	}
	return b
}

// AppendInts appends a length-prefixed int slice (zig-zag varints).
func AppendInts(b []byte, xs []int) []byte {
	b = AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = AppendVarint(b, int64(x))
	}
	return b
}

// AppendString appends a length-prefixed UTF-8 string.
func AppendString(b []byte, s string) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendStrings appends a length-prefixed string slice.
func AppendStrings(b []byte, ss []string) []byte {
	b = AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

// AppendBytes appends a length-prefixed byte slice.
func AppendBytes(b []byte, p []byte) []byte {
	b = AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// Reader decodes values appended by the Append functions. The first
// failure latches into Err; subsequent reads return zero values.
type Reader struct {
	buf []byte
	off int
	err error
	// nonCanonical records a value read in another encoding than the
	// one its Append function writes.
	nonCanonical bool
}

// NewReader returns a Reader over buf. The buffer is not copied.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Canonical reports whether every value read so far was in the one
// encoding the Append functions write: no padded varint (more than
// one byte, last byte 0) and no bool byte other than 0 or 1.
func (r *Reader) Canonical() bool { return !r.nonCanonical }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// fail latches the first error.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail(fmt.Errorf("%w: uvarint at offset %d", ErrTruncated, r.off))
		return 0
	}
	r.off += n
	if n > 1 && r.buf[r.off-1] == 0 {
		r.nonCanonical = true
	}
	return v
}

// varint decodes the zig-zag varint at the front of p and returns it
// with its length in bytes; a length <= 0 marks input that ends inside
// the varint or overflows 64 bits (binary.Varint's convention, which it
// matches on every input). One- and two-byte varints, every small
// value and cell id, are decoded here; longer ones go to binary.Varint.
func varint(p []byte) (int64, int) {
	if len(p) > 0 && p[0] < 0x80 {
		return unzigzag(uint64(p[0])), 1
	}
	if len(p) > 1 && p[1] < 0x80 {
		return unzigzag(uint64(p[0]&0x7f) | uint64(p[1])<<7), 2
	}
	return binary.Varint(p)
}

// failVarint latches the error for a varint that cannot be decoded at
// offset off.
func (r *Reader) failVarint(off int) {
	r.fail(fmt.Errorf("%w: varint at offset %d", ErrTruncated, off))
}

// Varint reads a zig-zag varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := varint(r.buf[r.off:])
	if n <= 0 {
		r.failVarint(r.off)
		return 0
	}
	r.off += n
	if n > 1 && r.buf[r.off-1] == 0 {
		r.nonCanonical = true
	}
	return v
}

// Int reads a zig-zag varint as an int.
func (r *Reader) Int() int { return int(r.Varint()) }

// Bool reads a 0/1 byte.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.buf) {
		r.fail(fmt.Errorf("%w: bool at offset %d", ErrTruncated, r.off))
		return false
	}
	v := r.buf[r.off]
	r.off++
	if v > 1 {
		r.nonCanonical = true
	}
	return v != 0
}

// Float64 reads exact IEEE 754 bits.
func (r *Reader) Float64() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail(fmt.Errorf("%w: float64 at offset %d", ErrTruncated, r.off))
		return 0
	}
	bits := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return math.Float64frombits(bits)
}

// sliceLen validates a length prefix against a per-element minimum
// size so a corrupt prefix cannot trigger a huge allocation.
func (r *Reader) sliceLen(minElemSize int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if minElemSize > 0 && n > uint64(r.Len()/minElemSize) {
		r.fail(fmt.Errorf("%w: %d elements declared, %d bytes left", ErrTooLarge, n, r.Len()))
		return 0
	}
	return int(n)
}

// Float64s reads a length-prefixed float64 slice.
func (r *Reader) Float64s() []float64 {
	n := r.sliceLen(8)
	if r.err != nil || n == 0 {
		return nil
	}
	// sliceLen checked that all n values are in the buffer.
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off+8*i:]))
	}
	r.off += 8 * n
	return out
}

// Float64Pairs reads a length-prefixed float64 slice of even length as
// consecutive pairs, straight into [][2]float64. It also returns the
// declared value count, so the caller can reject a count it does not
// expect; an odd count is skipped over and returns nil pairs.
func (r *Reader) Float64Pairs() (pairs [][2]float64, values int) {
	n := r.sliceLen(8)
	if r.err != nil || n == 0 {
		return nil, n
	}
	if n%2 != 0 {
		r.off += 8 * n
		return nil, n
	}
	pairs = make([][2]float64, n/2)
	for i := range pairs {
		p := r.buf[r.off+16*i:]
		pairs[i] = [2]float64{
			math.Float64frombits(binary.LittleEndian.Uint64(p)),
			math.Float64frombits(binary.LittleEndian.Uint64(p[8:])),
		}
	}
	r.off += 8 * n
	return pairs, n
}

// Ints reads a length-prefixed int slice in one pass: the offset stays
// in a local and the loop stops at the first varint that cannot be
// decoded, with the same error and offset as reading the elements one
// Int at a time. A padded varint is recorded as Int records it, by one
// scan of the bytes read once the loop is done.
func (r *Reader) Ints() []int {
	n := r.sliceLen(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	buf, start, off := r.buf, r.off, r.off
	for i := 0; i < n; {
		// Eight bytes that hold eight one-byte varints, or four
		// two-byte ones, all inside the table, decode together.
		if off+8 <= len(buf) {
			w := binary.LittleEndian.Uint64(buf[off:])
			switch cont := w & 0x8080808080808080; {
			case cont == 0 && i+8 <= n:
				group := out[i : i+8]
				for k := range group {
					group[k] = int(unzigzag(w >> (8 * k) & 0x7f))
				}
				i, off = i+8, off+8
				continue
			case cont == 0x0080008000800080 && i+4 <= n:
				group := out[i : i+4]
				for k := range group {
					p := w >> (16 * k)
					group[k] = int(unzigzag(p&0x7f | p>>1&0x3f80))
				}
				i, off = i+4, off+8
				continue
			}
		}
		v, m := varint(buf[off:])
		if m <= 0 {
			r.failVarint(off)
			out = nil
			break
		}
		out[i] = int(v)
		i, off = i+1, off+m
	}
	r.off = off
	if padded(buf[start:off]) {
		r.nonCanonical = true
	}
	return out
}

// padded reports whether the whole varints p holds end to end include
// a padded one. Only a multi-byte varint's last byte can be a 0 byte
// that follows a byte with the continuation bit set; any other 0 byte
// is the one-byte varint 0. bytes.IndexByte finds the 0 bytes, which
// are few in a table of region ids.
func padded(p []byte) bool {
	for i := 1; i < len(p); i++ {
		j := bytes.IndexByte(p[i:], 0)
		if j < 0 {
			return false
		}
		i += j
		if p[i-1] >= 0x80 {
			return true
		}
	}
	return false
}

// unzigzag decodes a zig-zag encoded value.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.sliceLen(1)
	if r.err != nil {
		return ""
	}
	if r.off+n > len(r.buf) {
		r.fail(fmt.Errorf("%w: string of %d bytes at offset %d", ErrTruncated, n, r.off))
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// Strings reads a length-prefixed string slice.
func (r *Reader) Strings() []string {
	n := r.sliceLen(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.String()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Bytes reads a length-prefixed byte slice (copied out of the input).
func (r *Reader) Bytes() []byte {
	n := r.sliceLen(1)
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.fail(fmt.Errorf("%w: %d bytes declared at offset %d", ErrTooLarge, n, r.off))
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:r.off+n])
	r.off += n
	return out
}
