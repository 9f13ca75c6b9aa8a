package shard_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"fairindex/internal/geo"
	"fairindex/internal/shard"
)

// seedManifest builds a small valid manifest by hand: a 2×4 grid cut
// into three regions served by two shards.
func seedManifest() *shard.Manifest {
	return &shard.Manifest{
		Generation: 0xfeedbeef,
		Grid:       geo.Grid{U: 2, V: 4},
		Box:        geo.BBox{MinLat: 33.7, MinLon: -118.7, MaxLat: 34.3, MaxLon: -118.1},
		NumRegions: 3,
		CellRegion: []int{0, 0, 1, 1, 0, 2, 2, 1},
		Shards: []shard.Shard{
			{Name: "s0", Lo: 0, Hi: 2, Fingerprint: 12345},
			{Name: "s1", Lo: 2, Hi: 3, Fingerprint: 67890},
		},
	}
}

// FuzzShardManifest pins the manifest decoder's contract: any byte
// stream either fails Decode or yields a plan whose shard ranges are
// disjoint, total and ascending over [0, NumRegions), whose
// re-encoding reproduces the input byte-identically (canonical
// round trip), and whose derived Layout has NumRegions regions and
// locates every cell to its table entry.
func FuzzShardManifest(f *testing.F) {
	valid := seedManifest().Encode()
	f.Add(valid)
	single := seedManifest()
	single.Shards = []shard.Shard{{Name: "only", Lo: 0, Hi: 3, Fingerprint: 7}}
	f.Add(single.Encode())
	// Corrupted variants steer the fuzzer toward each validation arm.
	for _, off := range []int{0, 4, 5, len(valid) / 2, len(valid) - 1} {
		bad := append([]byte(nil), valid...)
		bad[off] ^= 0x41
		f.Add(bad)
	}
	f.Add(valid[:len(valid)-3])                 // truncated
	f.Add(append(append([]byte(nil), valid...), // trailing bytes
		0x00, 0x01))
	f.Add([]byte("FSHD"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := shard.Decode(data)
		if err != nil {
			return
		}
		next := 0
		for i, s := range m.Shards {
			if s.Lo != next || s.Hi <= s.Lo {
				t.Fatalf("shard %d range [%d,%d) breaks disjoint total coverage at %d", i, s.Lo, s.Hi, next)
			}
			next = s.Hi
		}
		if next != m.NumRegions {
			t.Fatalf("ranges cover [0,%d) of %d regions", next, m.NumRegions)
		}
		layout := m.Layout()
		if layout == nil || layout.NumRegions() != m.NumRegions {
			t.Fatalf("accepted manifest's Layout %v does not hold its %d regions", layout, m.NumRegions)
		}
		for i, want := range m.CellRegion {
			if got, err := layout.LocateCell(m.Grid.CellAt(i)); err != nil || got != want {
				t.Fatalf("cell %d: Layout locates region %d (err %v), table says %d", i, got, err, want)
			}
		}
		if enc := m.Encode(); !bytes.Equal(enc, data) {
			t.Fatalf("accepted manifest does not round-trip byte-identically:\n in  %x\n out %x", data, enc)
		}
		// A decoded manifest's encoding must itself decode.
		if _, err := shard.Decode(m.Encode()); err != nil {
			t.Fatalf("re-encoded manifest rejected: %v", err)
		}
	})
}

func TestDecodeRejectsNonCanonical(t *testing.T) {
	valid := seedManifest().Encode()
	if _, err := shard.Decode(valid); err != nil {
		t.Fatalf("canonical bytes rejected: %v", err)
	}
	// Widen the version varint to a non-minimal two-byte encoding:
	// same decoded value, different bytes — must be rejected.
	nc := append([]byte(nil), valid[:4]...)
	nc = append(nc, 0x81, 0x00) // uvarint(1), non-minimal
	nc = append(nc, valid[5:]...)
	if _, err := shard.Decode(nc); err == nil {
		t.Fatal("non-minimal varint encoding accepted")
	}
}

// TestDecodeRejectsBadCellTables pins the refusals of the manifest's
// cell→region table, which validation checks by building its Layout:
// each plan below encodes canonically and Decode refuses it with
// ErrManifest.
func TestDecodeRejectsBadCellTables(t *testing.T) {
	cases := []struct {
		name string
		edit func(m *shard.Manifest)
		want string // the refusal's reason
	}{
		{"regions one above the table", func(m *shard.Manifest) {
			m.NumRegions = 4
			m.Shards[1].Hi = 4
		}, "cell table holds 3 regions, manifest declares 4"},
		{"regions one below the table", func(m *shard.Manifest) {
			m.NumRegions = 2
			m.Shards = m.Shards[:1]
		}, "cell table holds 3 regions, manifest declares 2"},
		{"region owning no cell", func(m *shard.Manifest) {
			m.NumRegions = 4
			m.CellRegion = []int{0, 0, 2, 2, 0, 3, 3, 2}
			m.Shards[1].Hi = 4
		}, "region covers no cells: region 1"},
		{"negative region id", func(m *shard.Manifest) { m.CellRegion[3] = -1 }, "cell 3 assigned to region -1"},
		{"table of the wrong length", func(m *shard.Manifest) { m.CellRegion = m.CellRegion[:7] }, "7 entries for 8 cells"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := seedManifest()
			tc.edit(m)
			_, err := shard.Decode(m.Encode())
			if !errors.Is(err, shard.ErrManifest) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Decode: err %v, want ErrManifest: ...%s", err, tc.want)
			}
		})
	}
}
