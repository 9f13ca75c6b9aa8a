package dataset

import (
	"reflect"
	"sort"
	"testing"

	"fairindex/internal/geo"
)

// The factorized layout must describe exactly the dense rows
// EncodeRow builds: Rows, over every record or any index list, is
// bit-equal to EncodeRow record by record, len(Names) columns wide,
// with each row capped at its own width inside the shared backing.
func TestEncodeGroupedMatchesDense(t *testing.T) {
	grid := geo.MustGrid(16, 16)
	spec := LA()
	spec.NumRecords = 300
	ds, err := Generate(spec, grid)
	if err != nil {
		t.Fatal(err)
	}
	numRegions := 7
	regionOf := make([]int, ds.Len())
	centroids := make([][2]float64, numRegions)
	for i := range regionOf {
		regionOf[i] = i % numRegions
	}
	for r := range centroids {
		centroids[r] = [2]float64{float64(r) / 10, 1 - float64(r)/10}
	}
	idx := []int{299, 0, 17, 17, 150}
	for _, enc := range []Encoding{EncDefault, EncCentroid, EncOneHot, EncCentroidOneHot} {
		e, err := Encode(ds, regionOf, numRegions, centroids, enc)
		if err != nil {
			t.Fatalf("%v: Encode: %v", enc, err)
		}
		if got, want := len(e.LocCols), len(e.Names)-ds.NumFeatures(); got != want {
			t.Fatalf("%v: %d location columns, want %d", enc, got, want)
		}
		check := func(rows [][]float64, records []int) {
			t.Helper()
			if len(rows) != len(records) {
				t.Fatalf("%v: %d rows, want %d", enc, len(rows), len(records))
			}
			for k, i := range records {
				want, err := EncodeRow(ds.Records[i].X, regionOf[i], numRegions, centroids, enc)
				if err != nil {
					t.Fatalf("%v: EncodeRow(%d): %v", enc, i, err)
				}
				if len(rows[k]) != len(e.Names) || cap(rows[k]) != len(e.Names) {
					t.Fatalf("%v: row %d len %d cap %d, want %d", enc, k, len(rows[k]), cap(rows[k]), len(e.Names))
				}
				if !reflect.DeepEqual(rows[k], want) {
					t.Fatalf("%v: row %d (record %d) = %v, want %v", enc, k, i, rows[k], want)
				}
			}
		}
		all := make([]int, ds.Len())
		for i := range all {
			all[i] = i
		}
		check(e.Rows(nil), all)
		check(e.Rows(idx), idx)
		check(e.Rows([]int{}), nil)
	}
}

func TestEncodeGroupedErrors(t *testing.T) {
	grid := geo.MustGrid(8, 8)
	spec := Houston()
	spec.NumRecords = 20
	ds, err := Generate(spec, grid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Encode(ds, make([]int, 3), 2, make([][2]float64, 2), EncCentroid); err == nil {
		t.Fatal("expected regionOf length error")
	}
	if _, err := Encode(ds, make([]int, ds.Len()), 4, make([][2]float64, 2), EncCentroid); err == nil {
		t.Fatal("expected centroid count error")
	}
	bad := make([]int, ds.Len())
	bad[5] = 9
	if _, err := Encode(ds, bad, 4, make([][2]float64, 4), EncCentroid); err == nil {
		t.Fatal("expected region range error")
	}
}

// Scaled specs must be deterministic, hit the requested size, and
// actually skew population into dominant clusters.
func TestScaledSpec(t *testing.T) {
	spec := Scaled(LA(), 10000)
	if spec.NumRecords != 10000 {
		t.Fatalf("NumRecords = %d", spec.NumRecords)
	}
	if spec.Districts <= LA().Districts {
		t.Fatalf("districts did not grow: %d", spec.Districts)
	}
	if spec.WeightTail <= 0 {
		t.Fatal("expected a heavy weight tail")
	}
	grid := geo.MustGrid(64, 64)
	a, err := Generate(spec, grid)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec, grid)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 10000 || b.Len() != a.Len() {
		t.Fatalf("lengths %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Records {
		if a.Records[i].Lat != b.Records[i].Lat || a.Records[i].Lon != b.Records[i].Lon {
			t.Fatalf("record %d not deterministic", i)
		}
	}
	// Skew check: with the heavy weight tail, the most populated decile
	// of occupied cells must hold clearly more of the population than
	// the same spec generated with the legacy near-uniform weights.
	legacy := spec
	legacy.WeightTail = 0
	c, err := Generate(legacy, grid)
	if err != nil {
		t.Fatal(err)
	}
	skewed := topDecileShare(a.CellCounts())
	flat := topDecileShare(c.CellCounts())
	if skewed <= flat+0.03 {
		t.Fatalf("heavy tail did not concentrate population: top-decile share %.3f (skewed) vs %.3f (legacy)", skewed, flat)
	}
}

// topDecileShare returns the fraction of all records held by the most
// populated 10% of occupied cells.
func topDecileShare(counts []int) float64 {
	occupied := make([]int, 0, len(counts))
	total := 0
	for _, c := range counts {
		if c > 0 {
			occupied = append(occupied, c)
			total += c
		}
	}
	if total == 0 {
		return 0
	}
	sort.Sort(sort.Reverse(sort.IntSlice(occupied)))
	top := len(occupied) / 10
	if top == 0 {
		top = 1
	}
	mass := 0
	for _, c := range occupied[:top] {
		mass += c
	}
	return float64(mass) / float64(total)
}
