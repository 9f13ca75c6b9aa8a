package shard_test

import (
	"fmt"
	"testing"

	"fairindex/internal/geo"
	"fairindex/internal/shard"
)

// BenchmarkManifestDecode measures what a router pays to load a
// manifest: a 64×64 grid of 256 block regions over four shards, the
// shape of a default-grid city split.
func BenchmarkManifestDecode(b *testing.B) {
	grid := geo.MustGrid(64, 64)
	m := &shard.Manifest{
		Generation: 7,
		Grid:       grid,
		Box:        geo.BBox{MinLat: 33.6, MinLon: -118.7, MaxLat: 34.4, MaxLon: -117.8},
		NumRegions: 256,
		CellRegion: make([]int, grid.NumCells()),
	}
	for i := range m.CellRegion {
		row, col := i/grid.V, i%grid.V
		m.CellRegion[i] = (row/4)*16 + col/4
	}
	for s := 0; s < 4; s++ {
		m.Shards = append(m.Shards, shard.Shard{Name: fmt.Sprintf("s%d", s), Lo: s * 64, Hi: (s + 1) * 64, Fingerprint: uint64(s + 1)})
	}
	data := m.Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shard.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
