package kdtree

import (
	"fmt"
	"math"

	"fairindex/internal/geo"
	"fairindex/internal/partition"
)

// This file implements the second future-work extension of the paper
// (§6 asks for alternative indexing structures that completely cover
// the data domain with superior clustering properties): a fair
// space-filling-curve partitioner. Grid cells are ordered along a
// Hilbert curve — which preserves spatial locality far better than
// row-major order — and the 1-D sequence is cut recursively at the
// deviation median, the same Eq. 9 criterion the Fair KD-tree applies
// per axis. Regions are contiguous curve segments: connected,
// domain-covering, and typically more compact than deep KD slabs.

// HilbertOrder returns every cell of the grid in Hilbert-curve order.
// The curve is generated on the enclosing 2^k × 2^k square and cells
// outside the grid are skipped, so the result is a permutation of all
// grid cells with strong spatial locality.
func HilbertOrder(grid geo.Grid) ([]geo.Cell, error) {
	if !grid.Valid() {
		return nil, geo.ErrBadGrid
	}
	side := 1
	for side < grid.U || side < grid.V {
		side *= 2
	}
	out := make([]geo.Cell, 0, grid.NumCells())
	total := side * side
	for d := 0; d < total; d++ {
		row, col := hilbertD2XY(side, d)
		c := geo.Cell{Row: row, Col: col}
		if grid.InBounds(c) {
			out = append(out, c)
		}
	}
	return out, nil
}

// hilbertD2XY converts a distance along the Hilbert curve of a
// side×side square (side a power of two) to coordinates.
func hilbertD2XY(side, d int) (x, y int) {
	t := d
	for s := 1; s < side; s *= 2 {
		rx := 1 & (t / 2)
		ry := 1 & (t ^ rx)
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y
}

// BuildFairCurve partitions the grid into up to 2^height contiguous
// Hilbert-curve segments by recursively cutting each segment at the
// offset that splits its signed deviation mass in half (the 1-D form
// of Eq. 9). cells/deviations follow the BuildFair convention. One
// depth-first pass cuts each interval and numbers the leaves as it
// reaches them, left before right.
func BuildFairCurve(grid geo.Grid, cells []geo.Cell, deviations []float64, height int) (*partition.Partition, error) {
	if err := validateBuild(grid, cells, height); err != nil {
		return nil, err
	}
	if len(deviations) != len(cells) {
		return nil, fmt.Errorf("%w: %d deviations for %d records", ErrBadInput, len(deviations), len(cells))
	}
	order, err := HilbertOrder(grid)
	if err != nil {
		return nil, err
	}
	// Per-cell deviation mass, then prefix sums along the curve.
	cellDev := make([]float64, grid.NumCells())
	for i, c := range cells {
		cellDev[grid.Index(c)] += deviations[i]
	}
	prefix := make([]float64, len(order)+1)
	for i, c := range order {
		prefix[i+1] = prefix[i] + cellDev[grid.Index(c)]
	}

	// Recursive deviation-median cuts over [lo, hi) curve intervals.
	segmentOf := make([]int, grid.NumCells())
	nextID := 0
	var cut func(lo, hi, depth int)
	cut = func(lo, hi, depth int) {
		if depth >= height || hi-lo <= 1 {
			for i := lo; i < hi; i++ {
				segmentOf[grid.Index(order[i])] = nextID
			}
			nextID++
			return
		}
		bestK := -1
		bestScore := math.Inf(1)
		bestDist := math.Inf(1)
		for k := lo + 1; k < hi; k++ {
			left := math.Abs(prefix[k] - prefix[lo])
			right := math.Abs(prefix[hi] - prefix[k])
			score := math.Abs(left - right)
			dist := math.Abs(float64(k-lo) - float64(hi-lo)/2)
			if score < bestScore-1e-15 || (score <= bestScore+1e-15 && dist < bestDist-1e-12) {
				bestK, bestScore, bestDist = k, score, dist
			}
		}
		cut(lo, bestK, depth+1)
		cut(bestK, hi, depth+1)
	}
	cut(0, len(order), 0)
	return partition.New(grid, nextID, segmentOf)
}
