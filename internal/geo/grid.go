package geo

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadGrid is returned when a grid has non-positive dimensions.
var ErrBadGrid = errors.New("geo: grid dimensions must be positive")

// Grid is the U×V base grid overlaid on the map (§2.1 of the paper).
// U is the number of rows, V the number of columns. The zero value is
// invalid; use NewGrid.
type Grid struct {
	U, V int
}

// NewGrid returns a U×V grid or ErrBadGrid if either dimension is
// non-positive.
func NewGrid(u, v int) (Grid, error) {
	if u <= 0 || v <= 0 {
		return Grid{}, fmt.Errorf("%w: %dx%d", ErrBadGrid, u, v)
	}
	// u*v must not overflow: NumCells sizes the cell→region table, and
	// a wrapped product would let hostile dimensions pass the table
	// length check while Index() computes offsets past its end.
	if u > math.MaxInt/v {
		return Grid{}, fmt.Errorf("%w: %dx%d overflows the cell count", ErrBadGrid, u, v)
	}
	return Grid{U: u, V: v}, nil
}

// MustGrid is like NewGrid but panics on invalid dimensions. Intended
// for tests and package-level defaults.
func MustGrid(u, v int) Grid {
	g, err := NewGrid(u, v)
	if err != nil {
		panic(err)
	}
	return g
}

// NumCells returns U*V.
func (g Grid) NumCells() int { return g.U * g.V }

// Bounds returns the rectangle covering the whole grid.
func (g Grid) Bounds() CellRect { return CellRect{0, 0, g.U, g.V} }

// Valid reports whether the grid has positive dimensions.
func (g Grid) Valid() bool { return g.U > 0 && g.V > 0 && g.U <= math.MaxInt/g.V }

// InBounds reports whether cell c lies on the grid.
func (g Grid) InBounds(c Cell) bool {
	return c.Row >= 0 && c.Row < g.U && c.Col >= 0 && c.Col < g.V
}

// Index returns the row-major linear index of cell c. The caller must
// ensure c is in bounds.
func (g Grid) Index(c Cell) int { return c.Row*g.V + c.Col }

// CellAt returns the cell for a row-major linear index. The caller
// must ensure 0 <= i < NumCells().
func (g Grid) CellAt(i int) Cell { return Cell{Row: i / g.V, Col: i % g.V} }

// String implements fmt.Stringer.
func (g Grid) String() string { return fmt.Sprintf("grid %dx%d", g.U, g.V) }

// BBox is a geographic bounding box in degrees. MinLat/MinLon is the
// southwest corner.
type BBox struct {
	MinLat, MinLon float64
	MaxLat, MaxLon float64
}

// Valid reports whether the box has positive extent in both axes.
func (b BBox) Valid() bool { return b.MaxLat > b.MinLat && b.MaxLon > b.MinLon }

// Mapper converts between geographic coordinates and grid cells. Rows
// follow latitude (row 0 = MinLat edge) and columns follow longitude.
type Mapper struct {
	Grid Grid
	Box  BBox
}

// NewMapper returns a Mapper or an error if grid or box is invalid.
func NewMapper(g Grid, b BBox) (Mapper, error) {
	if !g.Valid() {
		return Mapper{}, fmt.Errorf("%w: %dx%d", ErrBadGrid, g.U, g.V)
	}
	if !b.Valid() {
		return Mapper{}, fmt.Errorf("geo: invalid bounding box %+v", b)
	}
	return Mapper{Grid: g, Box: b}, nil
}

// CellOf returns the grid cell enclosing the coordinate, clamping
// points on or outside the box edge to the nearest border cell.
func (m Mapper) CellOf(lat, lon float64) Cell {
	row := ClampIndex(float64(m.Grid.U)*(lat-m.Box.MinLat)/(m.Box.MaxLat-m.Box.MinLat), m.Grid.U)
	col := ClampIndex(float64(m.Grid.V)*(lon-m.Box.MinLon)/(m.Box.MaxLon-m.Box.MinLon), m.Grid.V)
	return Cell{Row: row, Col: col}
}

// ClampIndex truncates a fractional cell coordinate to a row or column
// index in [0, n): below 0 (or NaN) clamps to 0, n and above to n-1.
// The clamp happens before the int conversion, which a coordinate far
// outside the box would overflow (|lat| ≳ 1e18 turned into the
// minimum int, so the far edge clamped to 0).
func ClampIndex(x float64, n int) int {
	switch {
	case !(x >= 0):
		return 0
	case x >= float64(n):
		return n - 1
	}
	return int(x)
}

// RegionInvalid is the region id LocateRange stores for a point it
// cannot locate (non-finite coordinates); valid ids are always >= 0.
const RegionInvalid = -1

// maxPointErrors bounds how many per-point errors LocateRange keeps
// verbatim; beyond it the joined error summarizes the remainder, so a
// hostile million-NaN batch cannot balloon memory.
const maxPointErrors = 8

// LocateRange is the batch locate kernel: it maps each coordinate to
// the region of its cell in table (the row-major cell→region table of
// a partition over m's grid) and stores it in dst. The cell expression
// is CellOf's, operation for operation, with the geometry hoisted out
// of the loop, so results are bit-identical to per-point lookups.
//
// A non-finite point yields RegionInvalid at its position and never
// aborts the batch; the returned error joins the per-point failures
// (nil when every point resolved). The error text is the fairindex
// package's, which both the index and the shard router return.
func (m Mapper) LocateRange(dst, table []int, lats, lons []float64) error {
	u, v := m.Grid.U, m.Grid.V
	uF, vF := float64(u), float64(v)
	minLat, minLon := m.Box.MinLat, m.Box.MinLon
	latSpan := m.Box.MaxLat - minLat
	lonSpan := m.Box.MaxLon - minLon
	var errs []error
	invalid := 0
	for i, lat := range lats {
		lon := lons[i]
		// x−x is 0 exactly when x is finite (NaN and ±Inf both yield
		// NaN), so this one branch is four IsNaN/IsInf checks.
		if lat-lat != 0 || lon-lon != 0 {
			dst[i] = RegionInvalid
			invalid++
			if len(errs) < maxPointErrors {
				errs = append(errs, fmt.Errorf("fairindex: point %d: non-finite coordinate (%v, %v)", i, lat, lon))
			}
			continue
		}
		row := ClampIndex(uF*(lat-minLat)/latSpan, u)
		col := ClampIndex(vF*(lon-minLon)/lonSpan, v)
		dst[i] = table[row*v+col]
	}
	if invalid > len(errs) {
		errs = append(errs, fmt.Errorf("fairindex: %d further invalid points", invalid-len(errs)))
	}
	return errors.Join(errs...)
}

// CenterOf returns the geographic center of a grid cell.
func (m Mapper) CenterOf(c Cell) (lat, lon float64) {
	latStep := (m.Box.MaxLat - m.Box.MinLat) / float64(m.Grid.U)
	lonStep := (m.Box.MaxLon - m.Box.MinLon) / float64(m.Grid.V)
	lat = m.Box.MinLat + (float64(c.Row)+0.5)*latStep
	lon = m.Box.MinLon + (float64(c.Col)+0.5)*lonStep
	return lat, lon
}
