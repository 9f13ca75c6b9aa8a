package shard

import (
	"fmt"

	fairindex "fairindex"
)

// Split carves a whole index into n shard artifacts plus the manifest
// describing the plan. Region ranges are balanced by region count
// (shard i owns [i·R/n, (i+1)·R/n)) and named s0…s{n-1}; each shard
// is a standalone fairindex.Index (see fairindex.ExtractShard) whose
// fingerprint the manifest records for generation checking. n must be
// in [1, NumRegions].
func Split(ix *fairindex.Index, n int) (*Manifest, []*fairindex.Index, error) {
	if n < 1 || n > ix.NumRegions() {
		return nil, nil, fmt.Errorf("shard: cannot split %d regions into %d shards", ix.NumRegions(), n)
	}
	gen, err := ix.Fingerprint()
	if err != nil {
		return nil, nil, fmt.Errorf("shard: fingerprinting source index: %w", err)
	}
	m := &Manifest{
		Generation: gen,
		Grid:       ix.Grid(),
		Box:        ix.Box(),
		NumRegions: ix.NumRegions(),
		CellRegion: ix.Partition().CellRegions(),
		Shards:     make([]Shard, 0, n),
	}
	shards := make([]*fairindex.Index, 0, n)
	for i := 0; i < n; i++ {
		lo := i * m.NumRegions / n
		hi := (i + 1) * m.NumRegions / n
		sx, err := ix.ExtractShard(lo, hi)
		if err != nil {
			return nil, nil, err
		}
		fp, err := sx.Fingerprint()
		if err != nil {
			return nil, nil, fmt.Errorf("shard: fingerprinting shard %d: %w", i, err)
		}
		m.Shards = append(m.Shards, Shard{Name: fmt.Sprintf("s%d", i), Lo: lo, Hi: hi, Fingerprint: fp})
		shards = append(shards, sx)
	}
	if err := m.validate(); err != nil {
		return nil, nil, err
	}
	m.derive()
	return m, shards, nil
}

// ShardOfRegion returns the index of the shard owning a global region
// id, or -1 when the id is out of range.
func (m *Manifest) ShardOfRegion(region int) int {
	if region < 0 || region >= m.NumRegions {
		return -1
	}
	return m.regionShard[region]
}

// RegionOfCell returns the global region owning a row-major cell
// index — the router's whole Locate answer, from the manifest alone.
func (m *Manifest) RegionOfCell(cell int) int { return m.CellRegion[cell] }

// Foreign reports whether shard i's artifact carries the foreign
// sentinel region (true unless the shard owns every region).
func (m *Manifest) Foreign(i int) bool {
	return m.Shards[i].Hi-m.Shards[i].Lo < m.NumRegions
}

// LocalRegions returns shard i's local region count, including the
// sentinel when present — what the shard artifact's NumRegions()
// reports.
func (m *Manifest) LocalRegions(i int) int {
	n := m.Shards[i].Hi - m.Shards[i].Lo
	if m.Foreign(i) {
		n++
	}
	return n
}

// ToGlobal translates shard i's local region id to the global id
// space; ok is false for the sentinel or an out-of-range local id.
func (m *Manifest) ToGlobal(i, local int) (global int, ok bool) {
	s := m.Shards[i]
	if local < 0 || local >= s.Hi-s.Lo {
		return 0, false
	}
	return s.Lo + local, true
}

// ToLocal translates a global region id to its owning shard and local
// id there.
func (m *Manifest) ToLocal(region int) (shard, local int) {
	shard = m.ShardOfRegion(region)
	if shard < 0 {
		return -1, -1
	}
	return shard, region - m.Shards[shard].Lo
}

// TranslateOverlaps rewrites one shard's RangeQuery result into the
// global id space in place, dropping the sentinel entry when present,
// and returns the (possibly shortened) slice. Owned-region cell
// counts and fractions are already exact — a shard carries its owned
// regions' cells verbatim — so translation is pure renumbering.
func (m *Manifest) TranslateOverlaps(i int, local []fairindex.RegionOverlap) []fairindex.RegionOverlap {
	out := local[:0]
	for _, ov := range local {
		g, ok := m.ToGlobal(i, ov.Region)
		if !ok {
			continue
		}
		ov.Region = g
		out = append(out, ov)
	}
	return out
}

// MergeOverlaps concatenates per-shard translated RangeQuery results
// given in shard order. Shard ranges ascend, and each shard's result
// ascends in local (hence global) id, so the concatenation is the
// whole index's ascending-id result.
func MergeOverlaps(lists ...[]fairindex.RegionOverlap) []fairindex.RegionOverlap {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if total == 0 {
		return nil
	}
	out := make([]fairindex.RegionOverlap, 0, total)
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// TranslateNearest rewrites one shard's NearestRegionsSquared result
// into the global id space in place, dropping the sentinel candidate,
// and returns the slice. Squared distances are preserved: merging
// happens in squared space (fairindex.MergeNearest), where the order
// is exactly the whole index's selection order.
func (m *Manifest) TranslateNearest(i int, local []fairindex.RegionDistance) []fairindex.RegionDistance {
	out := local[:0]
	for _, rd := range local {
		g, ok := m.ToGlobal(i, rd.Region)
		if !ok {
			continue
		}
		rd.Region = g
		out = append(out, rd)
	}
	return out
}

// TranslateStats rewrites one shard's per-region stats into the
// global id space in place, dropping the sentinel entry, and returns
// the slice. The surviving entries carry the whole index's exact
// sufficient statistics for those regions, ready for
// fairindex.MergeWindowStats.
func (m *Manifest) TranslateStats(i int, local []fairindex.RegionStat) []fairindex.RegionStat {
	out := local[:0]
	for _, rs := range local {
		g, ok := m.ToGlobal(i, rs.Region)
		if !ok {
			continue
		}
		rs.Region = g
		out = append(out, rs)
	}
	return out
}
