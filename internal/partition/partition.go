// Package partition defines the neighborhood partition abstraction:
// a complete, non-overlapping assignment of every grid cell to a
// region (the paper's "neighborhoods", §2.1). It also provides the
// two non-tree partitioners used as baselines in §5.1: a uniform grid
// (for the reweighting benchmark) and a Voronoi partition standing in
// for zip codes.
package partition

import (
	"errors"
	"fmt"

	"fairindex/internal/geo"
)

// Validation errors.
var (
	ErrBadAssignment = errors.New("partition: cell assignment out of range")
	ErrWrongLength   = errors.New("partition: assignment length does not match grid")
	ErrEmptyRegion   = errors.New("partition: region covers no cells")
	ErrNotCover      = errors.New("partition: rectangles do not exactly cover the grid")
)

// Partition assigns every cell of a grid to exactly one region.
// Regions are identified by dense ids in [0, NumRegions). Construct
// with New, FromRects or one of the partitioners; the zero value is
// invalid.
type Partition struct {
	grid       Grid
	numRegions int
	cellRegion []int // row-major cell index -> region id
}

// Grid is a local alias to keep the exported API tidy.
type Grid = geo.Grid

// Validate checks an explicit cell→region assignment: the slice must
// cover the grid exactly, ids must be dense in [0, numRegions) and
// every region must own at least one cell.
func Validate(grid geo.Grid, numRegions int, cellRegion []int) error {
	if !grid.Valid() {
		return fmt.Errorf("%w: %dx%d", geo.ErrBadGrid, grid.U, grid.V)
	}
	if len(cellRegion) != grid.NumCells() {
		return fmt.Errorf("%w: %d entries for %d cells", ErrWrongLength, len(cellRegion), grid.NumCells())
	}
	if numRegions <= 0 {
		return fmt.Errorf("partition: region count must be positive, got %d", numRegions)
	}
	// Pigeonhole bound before the region-coverage allocation: more
	// regions than cells guarantees an empty region, and rejecting it
	// here keeps a hostile decoded region count from sizing `seen`.
	if numRegions > len(cellRegion) {
		return fmt.Errorf("%w: %d regions over %d cells", ErrEmptyRegion, numRegions, len(cellRegion))
	}
	seen := make([]bool, numRegions)
	for i, r := range cellRegion {
		if r < 0 || r >= numRegions {
			return fmt.Errorf("%w: cell %d assigned to region %d of %d", ErrBadAssignment, i, r, numRegions)
		}
		seen[r] = true
	}
	for r, ok := range seen {
		if !ok {
			return fmt.Errorf("%w: region %d", ErrEmptyRegion, r)
		}
	}
	return nil
}

// New builds a partition from a copy of an explicit cell→region
// assignment that Validate accepts.
func New(grid geo.Grid, numRegions int, cellRegion []int) (*Partition, error) {
	if err := Validate(grid, numRegions, cellRegion); err != nil {
		return nil, err
	}
	p := &Partition{
		grid:       grid,
		numRegions: numRegions,
		cellRegion: append([]int(nil), cellRegion...),
	}
	return p, nil
}

// Single returns the trivial partition with one region covering the
// whole grid (the root of every index structure).
func Single(grid geo.Grid) (*Partition, error) {
	if !grid.Valid() {
		return nil, geo.ErrBadGrid
	}
	return &Partition{
		grid:       grid,
		numRegions: 1,
		cellRegion: make([]int, grid.NumCells()),
	}, nil
}

// CellIdentity returns the finest partition: every grid cell is its
// own region. This realizes §4.1 Step 1, where the location attribute
// is the enclosing grid cell identifier.
func CellIdentity(grid geo.Grid) (*Partition, error) {
	if !grid.Valid() {
		return nil, geo.ErrBadGrid
	}
	cr := make([]int, grid.NumCells())
	for i := range cr {
		cr[i] = i
	}
	return &Partition{grid: grid, numRegions: grid.NumCells(), cellRegion: cr}, nil
}

// FromRects builds a partition whose regions are the given cell
// rectangles (e.g. KD-tree leaves). The rectangles must exactly tile
// the grid: no gaps, no overlaps, no empty rects.
func FromRects(grid geo.Grid, rects []geo.CellRect) (*Partition, error) {
	if !grid.Valid() {
		return nil, geo.ErrBadGrid
	}
	if len(rects) == 0 {
		return nil, fmt.Errorf("%w: no rectangles", ErrNotCover)
	}
	cr := make([]int, grid.NumCells())
	for i := range cr {
		cr[i] = -1
	}
	for r, rect := range rects {
		if rect.Empty() {
			return nil, fmt.Errorf("%w: rectangle %d (%v)", ErrEmptyRegion, r, rect)
		}
		for row := rect.Row0; row < rect.Row1; row++ {
			for col := rect.Col0; col < rect.Col1; col++ {
				c := geo.Cell{Row: row, Col: col}
				if !grid.InBounds(c) {
					return nil, fmt.Errorf("%w: rectangle %d (%v) leaves the grid", ErrNotCover, r, rect)
				}
				i := grid.Index(c)
				if cr[i] != -1 {
					return nil, fmt.Errorf("%w: cell %v covered by regions %d and %d", ErrNotCover, c, cr[i], r)
				}
				cr[i] = r
			}
		}
	}
	for i, r := range cr {
		if r == -1 {
			return nil, fmt.Errorf("%w: cell %v uncovered", ErrNotCover, grid.CellAt(i))
		}
	}
	return &Partition{grid: grid, numRegions: len(rects), cellRegion: cr}, nil
}

// Grid returns the underlying grid.
func (p *Partition) Grid() geo.Grid { return p.grid }

// NumRegions returns the number of regions.
func (p *Partition) NumRegions() int { return p.numRegions }

// CellRegions returns a copy of the flat row-major cell→region lookup
// table. Index it with Grid().Index(cell) for an O(1), tree-free
// region lookup.
func (p *Partition) CellRegions() []int {
	return append([]int(nil), p.cellRegion...)
}

// RegionOfCell returns the region owning the cell. The cell must be
// in bounds.
func (p *Partition) RegionOfCell(c geo.Cell) (int, error) {
	if !p.grid.InBounds(c) {
		return 0, fmt.Errorf("partition: cell %v outside %v", c, p.grid)
	}
	return p.cellRegion[p.grid.Index(c)], nil
}

// AssignCells maps each cell to its region id; the standard way to
// derive record→neighborhood assignments.
func (p *Partition) AssignCells(cells []geo.Cell) ([]int, error) {
	out := make([]int, len(cells))
	for i, c := range cells {
		r, err := p.RegionOfCell(c)
		if err != nil {
			return nil, fmt.Errorf("partition: record %d: %w", i, err)
		}
		out[i] = r
	}
	return out, nil
}

// CellCountsPerRegion returns the number of grid cells in each region.
func (p *Partition) CellCountsPerRegion() []int {
	out := make([]int, p.numRegions)
	for _, r := range p.cellRegion {
		out[r]++
	}
	return out
}

// PopulationPerRegion aggregates per-cell populations (e.g. record
// counts from Dataset.CellCounts) into per-region populations.
func (p *Partition) PopulationPerRegion(cellCounts []int) ([]int, error) {
	if len(cellCounts) != p.grid.NumCells() {
		return nil, fmt.Errorf("%w: %d cell counts for %d cells", ErrWrongLength, len(cellCounts), p.grid.NumCells())
	}
	out := make([]int, p.numRegions)
	for i, n := range cellCounts {
		out[p.cellRegion[i]] += n
	}
	return out, nil
}

// Centroids returns each region's normalized centroid: the mean
// (row+0.5)/U, (col+0.5)/V over its cells, each component in (0,1).
// This feeds the centroid location encoding.
func (p *Partition) Centroids() [][2]float64 {
	return Centroids(p.grid, p.numRegions, p.cellRegion)
}

// Centroids returns the normalized region centroids of a validated
// cell→region table, as Partition.Centroids defines them.
func Centroids(grid geo.Grid, numRegions int, cellRegion []int) [][2]float64 {
	sums := make([][2]float64, numRegions)
	counts := make([]int, numRegions)
	for i, r := range cellRegion {
		c := grid.CellAt(i)
		sums[r][0] += (float64(c.Row) + 0.5) / float64(grid.U)
		sums[r][1] += (float64(c.Col) + 0.5) / float64(grid.V)
		counts[r]++
	}
	for r := range sums {
		if counts[r] > 0 {
			sums[r][0] /= float64(counts[r])
			sums[r][1] /= float64(counts[r])
		}
	}
	return sums
}

// IsRefinementOf reports whether p is a sub-partitioning of coarse
// (Theorem 2's premise): every region of p must lie entirely inside
// one region of coarse. Both partitions must share a grid.
func (p *Partition) IsRefinementOf(coarse *Partition) bool {
	if p.grid != coarse.grid {
		return false
	}
	parent := make([]int, p.numRegions)
	for i := range parent {
		parent[i] = -1
	}
	for i, r := range p.cellRegion {
		cr := coarse.cellRegion[i]
		if parent[r] == -1 {
			parent[r] = cr
		} else if parent[r] != cr {
			return false
		}
	}
	return true
}
