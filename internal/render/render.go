// Package render draws partitions as ASCII maps for CLI tools and
// examples: each grid cell becomes a glyph keyed by its region, so
// neighborhood boundaries are visible in a terminal.
package render

import (
	"strings"

	"fairindex/internal/geo"
	"fairindex/internal/partition"
)

// glyphs cycle over regions; adjacent tree leaves get consecutive ids
// so neighboring regions rarely collide.
const glyphs = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

// Partition renders the partition as an ASCII map with at most
// maxSide characters per side, downsampling larger grids by point
// sampling. Row 0 (the grid's southern edge) is drawn at the bottom,
// matching map orientation.
func Partition(p *partition.Partition, maxSide int) string {
	if maxSide <= 0 {
		maxSide = 64
	}
	grid := p.Grid()
	rows, cols := grid.U, grid.V
	if rows > maxSide {
		rows = maxSide
	}
	if cols > maxSide {
		cols = maxSide
	}
	var b strings.Builder
	for r := rows - 1; r >= 0; r-- {
		srcRow := r * grid.U / rows
		for c := 0; c < cols; c++ {
			srcCol := c * grid.V / cols
			region, err := p.RegionOfCell(geo.Cell{Row: srcRow, Col: srcCol})
			if err != nil {
				b.WriteByte('?')
				continue
			}
			b.WriteByte(glyphs[region%len(glyphs)])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
