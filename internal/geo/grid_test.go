package geo

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewGrid(t *testing.T) {
	tests := []struct {
		u, v    int
		wantErr bool
	}{
		{1, 1, false},
		{64, 64, false},
		{0, 4, true},
		{4, 0, true},
		{-1, 3, true},
	}
	for _, tt := range tests {
		g, err := NewGrid(tt.u, tt.v)
		if (err != nil) != tt.wantErr {
			t.Errorf("NewGrid(%d,%d) err = %v, wantErr %v", tt.u, tt.v, err, tt.wantErr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadGrid) {
				t.Errorf("error %v is not ErrBadGrid", err)
			}
			continue
		}
		if g.NumCells() != tt.u*tt.v {
			t.Errorf("NumCells = %d, want %d", g.NumCells(), tt.u*tt.v)
		}
		if g.Bounds() != (CellRect{0, 0, tt.u, tt.v}) {
			t.Errorf("Bounds = %v", g.Bounds())
		}
	}
}

func TestMustGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustGrid(0,0) did not panic")
		}
	}()
	MustGrid(0, 0)
}

func TestGridIndexRoundTrip(t *testing.T) {
	g := MustGrid(7, 11)
	seen := make(map[int]bool)
	for row := 0; row < g.U; row++ {
		for col := 0; col < g.V; col++ {
			c := Cell{row, col}
			if !g.InBounds(c) {
				t.Fatalf("cell %v should be in bounds", c)
			}
			i := g.Index(c)
			if i < 0 || i >= g.NumCells() {
				t.Fatalf("index %d out of range", i)
			}
			if seen[i] {
				t.Fatalf("duplicate index %d", i)
			}
			seen[i] = true
			if back := g.CellAt(i); back != c {
				t.Fatalf("CellAt(Index(%v)) = %v", c, back)
			}
		}
	}
	if len(seen) != g.NumCells() {
		t.Errorf("covered %d indices, want %d", len(seen), g.NumCells())
	}
}

func TestGridInBounds(t *testing.T) {
	g := MustGrid(3, 3)
	out := []Cell{{-1, 0}, {0, -1}, {3, 0}, {0, 3}}
	for _, c := range out {
		if g.InBounds(c) {
			t.Errorf("InBounds(%v) = true, want false", c)
		}
	}
}

func TestNewMapperValidation(t *testing.T) {
	goodBox := BBox{MinLat: 33, MinLon: -119, MaxLat: 34.5, MaxLon: -117.5}
	if _, err := NewMapper(Grid{}, goodBox); err == nil {
		t.Error("expected error for invalid grid")
	}
	if _, err := NewMapper(MustGrid(4, 4), BBox{MinLat: 1, MaxLat: 1}); err == nil {
		t.Error("expected error for invalid bbox")
	}
	if _, err := NewMapper(MustGrid(4, 4), goodBox); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestMapperCellOf(t *testing.T) {
	m, err := NewMapper(MustGrid(10, 10), BBox{MinLat: 0, MinLon: 0, MaxLat: 10, MaxLon: 10})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		lat, lon float64
		want     Cell
	}{
		{0.5, 0.5, Cell{0, 0}},
		{9.5, 9.5, Cell{9, 9}},
		{5.0, 2.5, Cell{5, 2}},
		// Clamping outside the box.
		{-4, 5, Cell{0, 5}},
		{14, 5, Cell{9, 5}},
		{5, -4, Cell{5, 0}},
		{5, 99, Cell{5, 9}},
		// Exactly on the max edge clamps to the last cell.
		{10, 10, Cell{9, 9}},
		// Far enough out to overflow an int: clamps to the far edge.
		{1e300, -1e300, Cell{9, 0}},
		{-1e300, 1e300, Cell{0, 9}},
		{math.MaxFloat64, math.MaxFloat64, Cell{9, 9}},
		{1e19, 5, Cell{9, 5}},
	}
	for _, tt := range tests {
		if got := m.CellOf(tt.lat, tt.lon); got != tt.want {
			t.Errorf("CellOf(%v,%v) = %v, want %v", tt.lat, tt.lon, got, tt.want)
		}
	}
}

func TestMapperRoundTripProperty(t *testing.T) {
	m, err := NewMapper(MustGrid(32, 16), BBox{MinLat: 29, MinLon: -96, MaxLat: 30.5, MaxLon: -94.5})
	if err != nil {
		t.Fatal(err)
	}
	// Property: the center of any cell maps back to that cell.
	f := func(row, col uint8) bool {
		c := Cell{int(row) % m.Grid.U, int(col) % m.Grid.V}
		lat, lon := m.CenterOf(c)
		return m.CellOf(lat, lon) == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestLocateRange pins the batch kernel: valid points get the region
// of CellOf's cell, non-finite ones the sentinel, and the joined error
// keeps the first eight per-point lines plus one summary line, byte
// for byte.
func TestLocateRange(t *testing.T) {
	m, err := NewMapper(MustGrid(4, 8), BBox{MinLat: 10, MinLon: 20, MaxLat: 14, MaxLon: 28})
	if err != nil {
		t.Fatal(err)
	}
	table := make([]int, m.Grid.NumCells())
	for i := range table {
		table[i] = 100 + i
	}
	nan, inf := math.NaN(), math.Inf(1)
	lats := []float64{11.5, 1e300, -1e300, 13.99, 12}
	lons := []float64{27.2, -1e300, 1e300, 20.01, 24}
	for i := 0; i < 11; i++ {
		lats = append(lats, nan)
		lons = append(lons, inf)
	}
	dst := make([]int, len(lats))
	err = m.LocateRange(dst, table, lats, lons)
	for i := range lats {
		want := RegionInvalid
		if i < 5 {
			want = table[m.Grid.Index(m.CellOf(lats[i], lons[i]))]
		}
		if dst[i] != want {
			t.Errorf("point %d: region %d, want %d", i, dst[i], want)
		}
	}
	var lines []string
	for i := 5; i < 13; i++ {
		lines = append(lines, "fairindex: point "+strconv.Itoa(i)+": non-finite coordinate (NaN, +Inf)")
	}
	lines = append(lines, "fairindex: 3 further invalid points")
	if want := strings.Join(lines, "\n"); err == nil || err.Error() != want {
		t.Errorf("error:\n%v\nwant:\n%s", err, want)
	}
	if err := m.LocateRange(dst[:5], table, lats[:5], lons[:5]); err != nil {
		t.Errorf("all-valid batch: %v", err)
	}
}
