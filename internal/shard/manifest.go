// Package shard implements the distributed-serving split of one
// fairindex artifact into standalone per-shard artifacts, the
// versioned manifest describing the split, and the id translation the
// scatter-gather router (internal/router) uses to reassemble exact
// whole-index window stats from per-shard responses.
//
// The split is by contiguous global region-id range: shard i serves
// regions [Lo_i, Hi_i) of the whole index, renumbered locally to
// start at 0, with one extra "foreign" sentinel region absorbing the
// grid cells other shards own (see fairindex.ExtractShard). The
// manifest carries the whole index's cell→region table, from which
// the router derives the region geometry (fairindex.NewLayout) and
// answers locate, range and kNN itself. Every fairness aggregate is
// built from additive per-region sufficient statistics, so the stats
// merge is exact — bit-identical to the whole index, not an
// approximation; the parity suite in this package pins that property.
// See docs/SHARDING.md.
package shard

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"fairindex/internal/binenc"
	"fairindex/internal/geo"
)

// Manifest errors.
var (
	// ErrManifest reports bytes that are not a valid serialized shard
	// manifest (wrong magic, unsupported version, corrupt payload or a
	// plan violating the split invariants).
	ErrManifest = errors.New("shard: invalid manifest")
)

// Shard describes one shard of the plan: which contiguous global
// region range its artifact serves and the exact artifact expected to
// serve it.
type Shard struct {
	// Name identifies the shard inside the plan (and names its .fidx
	// artifact); 1–64 characters from [A-Za-z0-9._-], unique within
	// the manifest.
	Name string
	// Lo, Hi delimit the half-open global region range [Lo, Hi) the
	// shard owns.
	Lo, Hi int
	// Fingerprint is the expected fairindex.Fingerprint of the shard's
	// artifact. The router checks it against the Fairindex-Generation
	// header of every backend response; a mismatch means the backend
	// serves a different generation than the manifest describes.
	Fingerprint uint64
}

// Manifest is the versioned description of one index split: the
// source index's geometry and cell→region table (enough to locate any
// coordinate without touching a backend) plus the per-shard region
// ranges and artifact fingerprints.
//
// The binary encoding (Encode/Decode) is canonical: Decode rejects
// any byte stream that does not re-encode to the identical bytes, so
// a decoded manifest always round-trips byte-identically.
type Manifest struct {
	// Generation is the whole source index's fingerprint — the
	// manifest-generation token for snapshot consistency.
	Generation uint64
	Grid       geo.Grid
	Box        geo.BBox
	NumRegions int
	// CellRegion is the whole index's row-major cell→region table; the
	// router derives its region geometry from it.
	CellRegion []int
	// Shards lists the plan's shards in ascending region-range order;
	// the ranges are disjoint and total over [0, NumRegions).
	Shards []Shard

	// regionShard maps each global region id to the index of its
	// owning shard. Derived, not serialized.
	regionShard []int
}

var manifestMagic = [4]byte{'F', 'S', 'H', 'D'}

// manifestVersion is the encoding version Encode writes; unknown
// versions are rejected so later layout changes stay decodable.
const manifestVersion = 1

// maxManifestDim caps each grid dimension a manifest may declare;
// far above any real city grid, it keeps hostile dimensions from
// overflowing cell-count arithmetic.
const maxManifestDim = 1 << 15

// Encode serializes the manifest in the canonical binary layout:
//
//	magic "FSHD" | uvarint version
//	uvarint generation
//	grid (U, V varints) | box (4 × float64, exact bits)
//	varint numRegions | cell→region table (ints)
//	uvarint shard count | per shard: name, lo, hi, uvarint fingerprint
func (m *Manifest) Encode() []byte {
	b := append([]byte(nil), manifestMagic[:]...)
	b = binenc.AppendUvarint(b, manifestVersion)
	b = binenc.AppendUvarint(b, m.Generation)
	b = binenc.AppendVarint(b, int64(m.Grid.U))
	b = binenc.AppendVarint(b, int64(m.Grid.V))
	b = binenc.AppendFloat64(b, m.Box.MinLat)
	b = binenc.AppendFloat64(b, m.Box.MinLon)
	b = binenc.AppendFloat64(b, m.Box.MaxLat)
	b = binenc.AppendFloat64(b, m.Box.MaxLon)
	b = binenc.AppendVarint(b, int64(m.NumRegions))
	b = binenc.AppendInts(b, m.CellRegion)
	b = binenc.AppendUvarint(b, uint64(len(m.Shards)))
	for _, s := range m.Shards {
		b = binenc.AppendString(b, s.Name)
		b = binenc.AppendVarint(b, int64(s.Lo))
		b = binenc.AppendVarint(b, int64(s.Hi))
		b = binenc.AppendUvarint(b, s.Fingerprint)
	}
	return b
}

// Decode parses and fully validates a serialized manifest. Beyond
// structural decoding it enforces the split invariants — shard ranges
// disjoint, total and ascending over [0, NumRegions), a total
// cell→region table with every region owning at least one cell, a
// mappable bounding box — and canonicality: the input must be exactly
// what Encode produces for the decoded plan, so varint games or
// trailing garbage are rejected rather than silently normalized.
func Decode(data []byte) (*Manifest, error) {
	if len(data) < len(manifestMagic) || string(data[:4]) != string(manifestMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrManifest)
	}
	r := binenc.NewReader(data[4:])
	version := r.Uvarint()
	if r.Err() == nil && version != manifestVersion {
		return nil, fmt.Errorf("%w: unsupported version %d (have %d)", ErrManifest, version, manifestVersion)
	}
	m := &Manifest{}
	m.Generation = r.Uvarint()
	m.Grid = geo.Grid{U: r.Int(), V: r.Int()}
	m.Box = geo.BBox{
		MinLat: r.Float64(), MinLon: r.Float64(),
		MaxLat: r.Float64(), MaxLon: r.Float64(),
	}
	m.NumRegions = r.Int()
	m.CellRegion = r.Ints()
	numShards := int(r.Uvarint())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrManifest, err)
	}
	// Each shard entry needs at least 4 bytes (name length, lo, hi,
	// fingerprint); bounding by the remaining payload keeps a hostile
	// count from sizing the slice before any bytes back it.
	if numShards < 1 || numShards > r.Len()/4+1 {
		return nil, fmt.Errorf("%w: shard count %d", ErrManifest, numShards)
	}
	m.Shards = make([]Shard, numShards)
	for i := range m.Shards {
		m.Shards[i] = Shard{
			Name:        r.String(),
			Lo:          r.Int(),
			Hi:          r.Int(),
			Fingerprint: r.Uvarint(),
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrManifest, err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after payload", ErrManifest, r.Len())
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	// Canonical round trip: non-minimal varints (which Go's varint
	// decoder accepts) would otherwise produce a manifest whose
	// re-encoding differs from the input.
	if !bytes.Equal(m.Encode(), data) {
		return nil, fmt.Errorf("%w: non-canonical encoding", ErrManifest)
	}
	m.derive()
	return m, nil
}

// validate enforces the split invariants on a decoded (or
// hand-assembled) manifest.
func (m *Manifest) validate() error {
	if m.Grid.U < 1 || m.Grid.V < 1 || m.Grid.U > maxManifestDim || m.Grid.V > maxManifestDim {
		return fmt.Errorf("%w: grid %dx%d", ErrManifest, m.Grid.U, m.Grid.V)
	}
	for _, v := range [4]float64{m.Box.MinLat, m.Box.MinLon, m.Box.MaxLat, m.Box.MaxLon} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: non-finite bounding box %+v", ErrManifest, m.Box)
		}
	}
	if _, err := geo.NewMapper(m.Grid, m.Box); err != nil {
		return fmt.Errorf("%w: %v", ErrManifest, err)
	}
	if m.NumRegions < 1 || m.NumRegions > m.Grid.NumCells() {
		return fmt.Errorf("%w: %d regions on a %d-cell grid", ErrManifest, m.NumRegions, m.Grid.NumCells())
	}
	if len(m.CellRegion) != m.Grid.NumCells() {
		return fmt.Errorf("%w: cell table holds %d of %d cells", ErrManifest, len(m.CellRegion), m.Grid.NumCells())
	}
	counts := make([]int, m.NumRegions)
	for i, region := range m.CellRegion {
		if region < 0 || region >= m.NumRegions {
			return fmt.Errorf("%w: cell %d maps to region %d of %d", ErrManifest, i, region, m.NumRegions)
		}
		counts[region]++
	}
	for region, n := range counts {
		if n == 0 {
			return fmt.Errorf("%w: region %d owns no cells", ErrManifest, region)
		}
	}
	if len(m.Shards) > m.NumRegions {
		return fmt.Errorf("%w: %d shards over %d regions", ErrManifest, len(m.Shards), m.NumRegions)
	}
	names := make(map[string]bool, len(m.Shards))
	next := 0
	for i, s := range m.Shards {
		if !validShardName(s.Name) {
			return fmt.Errorf("%w: shard %d name %q", ErrManifest, i, s.Name)
		}
		if names[s.Name] {
			return fmt.Errorf("%w: duplicate shard name %q", ErrManifest, s.Name)
		}
		names[s.Name] = true
		if s.Lo != next || s.Hi <= s.Lo {
			return fmt.Errorf("%w: shard %q range [%d,%d) breaks coverage at %d", ErrManifest, s.Name, s.Lo, s.Hi, next)
		}
		next = s.Hi
	}
	if next != m.NumRegions {
		return fmt.Errorf("%w: shard ranges cover [0,%d) of %d regions", ErrManifest, next, m.NumRegions)
	}
	return nil
}

// validShardName reports whether a name is usable in artifact file
// names and -shard name=url flags.
func validShardName(name string) bool {
	if len(name) < 1 || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// derive builds the region→shard lookup table.
func (m *Manifest) derive() {
	m.regionShard = make([]int, m.NumRegions)
	for i, s := range m.Shards {
		for g := s.Lo; g < s.Hi; g++ {
			m.regionShard[g] = i
		}
	}
}
