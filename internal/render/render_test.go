package render

import (
	"strings"
	"testing"

	"fairindex/internal/geo"
	"fairindex/internal/partition"
)

func TestPartitionMap(t *testing.T) {
	grid := geo.MustGrid(4, 4)
	p, err := partition.New(grid, 2, []int{
		0, 0, 1, 1,
		0, 0, 1, 1,
		0, 0, 1, 1,
		0, 0, 1, 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := Partition(p, 64)
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4", len(lines))
	}
	for _, line := range lines {
		if line != "0011" {
			t.Errorf("line = %q, want 0011", line)
		}
	}
}

func TestPartitionMapOrientation(t *testing.T) {
	grid := geo.MustGrid(2, 2)
	// Region 1 covers row 1 (the northern row): it must be drawn on
	// the FIRST output line (top of the map).
	p, err := partition.New(grid, 2, []int{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(Partition(p, 8), "\n"), "\n")
	if lines[0] != "11" || lines[1] != "00" {
		t.Errorf("map = %v, want [11 00]", lines)
	}
}

func TestPartitionDownsampling(t *testing.T) {
	grid := geo.MustGrid(128, 128)
	p, err := partition.Single(grid)
	if err != nil {
		t.Fatal(err)
	}
	got := Partition(p, 16)
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 16 {
		t.Fatalf("downsampled lines = %d, want 16", len(lines))
	}
	if len(lines[0]) != 16 {
		t.Fatalf("downsampled cols = %d, want 16", len(lines[0]))
	}
	// Default maxSide kicks in for non-positive values.
	if got := Partition(p, 0); len(strings.Split(strings.TrimRight(got, "\n"), "\n")) != 64 {
		t.Error("default maxSide not applied")
	}
}
