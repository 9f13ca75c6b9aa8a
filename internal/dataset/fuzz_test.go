package dataset

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fairindex/internal/geo"
)

// FuzzDatasetCSV throws arbitrary text at the canonical CSV reader:
// every input must either parse into a dataset that passes Validate
// and survives a write→read round trip, or be rejected with an error
// — never panic. Seeds live in testdata/fuzz/FuzzDatasetCSV and are
// extended inline with the interesting shapes (quoting, wrong arity,
// label prefixes, non-finite numbers).
func FuzzDatasetCSV(f *testing.F) {
	seeds := []string{
		"id,lat,lon,income,label:approved\nr0,34.1,-118.3,1.5,1\nr1,33.9,-118.1,0.5,0\n",
		"id,lat,lon,label:hot\nr0,34.0,-118.2,1\n",
		"id,lat,lon,a,b,label:x,label:y\nr0,34,-118,1,2,0,1\nr1,34.5,-117.5,3,4,1,0\n",
		"id,lat,lon,income,label:approved\n",                        // header only
		"lat,lon,id,income,label:approved\nr0,34,-118,1,1\n",        // wrong meta order
		"id,lat,lon,income\nr0,34,-118,1\n",                         // no labels
		"id,lat,lon,label:a,income\nr0,34,-118,1,2\n",               // feature after label
		"id,lat,lon,income,label:approved\nr0,34,-118,1\n",          // wrong arity
		"id,lat,lon,income,label:approved\nr0,north,-118,1,1\n",     // bad lat
		"id,lat,lon,income,label:approved\nr0,34,-118,NaN,1\n",      // non-finite feature
		"id,lat,lon,income,label:approved\nr0,34,-118,1,2\n",        // non-binary label
		"id,lat,lon,\"inc,ome\",label:approved\nr0,34,-118,1,1\n",   // quoted comma
		"id,lat,lon,income,label:approved\n\"r,0\",34,-118,1e2,0\n", // quoted id, exponent
		"id,lat,lon,income,label:approved\r\nr0,34,-118,1,1\r\n",    // CRLF
		"",
		"\xef\xbb\xbfid,lat,lon,label:x\nr0,34,-118,1\n", // BOM
	}
	for _, s := range seeds {
		f.Add(s)
	}
	grid := geo.MustGrid(8, 8)
	box := geo.BBox{MinLat: 33.5, MinLon: -119, MaxLat: 34.5, MaxLon: -117}
	f.Fuzz(func(t *testing.T, data string) {
		ds, err := ReadCSV(strings.NewReader(data), "fuzz", grid, box)
		if err != nil {
			return // rejected input is the expected outcome
		}
		// Accepted input must be a structurally valid dataset...
		if err := ds.Validate(); err != nil {
			t.Fatalf("ReadCSV accepted a dataset Validate rejects: %v", err)
		}
		// ...that survives the canonical write→read round trip.
		var buf bytes.Buffer
		if err := WriteCSV(ds, &buf); err != nil {
			t.Fatalf("accepted dataset does not serialize: %v", err)
		}
		back, err := ReadCSV(bytes.NewReader(buf.Bytes()), "fuzz", grid, box)
		if err != nil {
			t.Fatalf("canonical serialization does not re-parse: %v", err)
		}
		if back.Len() != ds.Len() || back.NumFeatures() != ds.NumFeatures() || back.NumTasks() != ds.NumTasks() {
			t.Fatalf("round trip changed shape: %dx%dx%d -> %dx%dx%d",
				ds.Len(), ds.NumFeatures(), ds.NumTasks(),
				back.Len(), back.NumFeatures(), back.NumTasks())
		}
		for i := range ds.Records {
			a, b := &ds.Records[i], &back.Records[i]
			if a.ID != b.ID || a.Cell != b.Cell {
				t.Fatalf("record %d changed identity: %+v -> %+v", i, a, b)
			}
		}
	})
}

// FuzzEncodeRows holds the one encoder to its per-record core: over
// random small grids, records, region assignments and centroids under
// every encoding, Encode(...).Rows(idx) must equal EncodeRow for each
// record bit for bit, len(Names) columns wide, and whatever one of
// them rejects — a region out of range, too few centroids, an unknown
// encoding — the other must reject too.
func FuzzEncodeRows(f *testing.F) {
	for enc := int8(-1); enc <= 5; enc++ {
		f.Add(int64(enc)+7, uint8(4), uint8(4), uint8(3), uint8(3), uint8(12), uint8(2), enc, false)
	}
	f.Add(int64(1), uint8(2), uint8(3), uint8(4), uint8(2), uint8(5), uint8(1), int8(EncCentroid), false)       // too few centroids
	f.Add(int64(2), uint8(3), uint8(3), uint8(2), uint8(2), uint8(6), uint8(0), int8(EncOneHot), true)          // region out of range
	f.Add(int64(3), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(3), int8(EncCentroidOneHot), false) // no regions
	f.Fuzz(func(t *testing.T, seed int64, rows, cols, numRegions, numCentroids, numRecords, numFeatures uint8, rawEnc int8, badRegion bool) {
		rng := rand.New(rand.NewSource(seed))
		grid := geo.MustGrid(1+int(rows%8), 1+int(cols%8))
		regions := int(numRegions % 16)
		enc := Encoding(rawEnc)

		// Regions own cells; a region's centroid is one of its grid
		// cells' normalized center.
		regionOfCell := make([]int, grid.NumCells())
		for c := range regionOfCell {
			regionOfCell[c] = rng.Intn(regions + 1) // regions itself is out of range
			if !badRegion && regions > 0 {
				regionOfCell[c] %= regions
			}
		}
		centroids := make([][2]float64, numCentroids%16)
		for r := range centroids {
			cell := grid.CellAt(rng.Intn(grid.NumCells()))
			centroids[r] = [2]float64{(float64(cell.Row) + 0.5) / float64(grid.U), (float64(cell.Col) + 0.5) / float64(grid.V)}
		}

		// Features are arbitrary bit patterns (NaN payloads, -0, ±Inf
		// included): Rows must copy them, never recompute them.
		ds := &Dataset{Grid: grid, FeatureNames: make([]string, numFeatures%5)}
		for j := range ds.FeatureNames {
			ds.FeatureNames[j] = fmt.Sprintf("f%d", j)
		}
		n := 1 + int(numRecords%32)
		regionOf := make([]int, n)
		for i := 0; i < n; i++ {
			cell := grid.CellAt(rng.Intn(grid.NumCells()))
			x := make([]float64, len(ds.FeatureNames))
			for j := range x {
				x[j] = math.Float64frombits(rng.Uint64())
			}
			ds.Records = append(ds.Records, Record{Cell: cell, X: x})
			regionOf[i] = regionOfCell[grid.Index(cell)]
		}

		e, encodeErr := Encode(ds, regionOf, regions, centroids, enc)
		want := make([][]float64, n)
		var rowErr error
		for i, rec := range ds.Records {
			if want[i], rowErr = EncodeRow(rec.X, regionOf[i], regions, centroids, enc); rowErr != nil {
				break
			}
		}
		if (encodeErr == nil) != (rowErr == nil) {
			t.Fatalf("Encode error %v, EncodeRow error %v", encodeErr, rowErr)
		}
		if encodeErr != nil {
			return
		}
		if len(e.Names) != len(ds.FeatureNames)+len(e.LocCols) {
			t.Fatalf("%d names for %d features and %d location columns", len(e.Names), len(ds.FeatureNames), len(e.LocCols))
		}
		idx := make([]int, rng.Intn(2*n+1))
		for k := range idx {
			idx[k] = rng.Intn(n)
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		for _, tc := range []struct{ arg, records []int }{{nil, all}, {idx, idx}} {
			got := e.Rows(tc.arg)
			if len(got) != len(tc.records) {
				t.Fatalf("Rows: %d rows, want %d", len(got), len(tc.records))
			}
			for k, i := range tc.records {
				if len(got[k]) != len(e.Names) || !sameBits(got[k], want[i]) {
					t.Fatalf("Rows row %d (record %d) = %v, EncodeRow = %v, %d names", k, i, got[k], want[i], len(e.Names))
				}
			}
		}
	})
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
