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
	if err := checkGeometry(ix, m); err != nil {
		return nil, nil, err
	}
	m.derive()
	return m, shards, nil
}

// checkGeometry refuses an index whose stored region geometry differs
// from what its cell→region table determines. The router answers range
// and kNN from a fairindex.Layout it derives from the manifest's table
// alone, so a hand-edited artifact whose stored centroids, bounding
// rects or cell counts disagree with its table would make those
// answers differ from the whole index's.
func checkGeometry(ix *fairindex.Index, m *Manifest) error {
	derived, err := fairindex.NewLayout(m.Grid, m.Box, m.CellRegion)
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	for region := 0; region < m.NumRegions; region++ {
		stored, _ := ix.Centroid(region)
		want, _ := derived.Centroid(region)
		if stored != want {
			return fmt.Errorf("shard: region %d: stored centroid %v, cell table gives %v", region, stored, want)
		}
		storedRect, _ := ix.RegionRect(region)
		wantRect, _ := derived.RegionRect(region)
		storedCells, _ := ix.RegionCells(region)
		wantCells, _ := derived.RegionCells(region)
		if storedRect != wantRect || storedCells != wantCells {
			return fmt.Errorf("shard: region %d: stored bounds %v (%d cells), cell table gives %v (%d cells)",
				region, storedRect, storedCells, wantRect, wantCells)
		}
	}
	return nil
}

// ShardOfRegion returns the index of the shard owning a global region
// id, or -1 when the id is out of range.
func (m *Manifest) ShardOfRegion(region int) int {
	if region < 0 || region >= m.NumRegions {
		return -1
	}
	return m.regionShard[region]
}

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
