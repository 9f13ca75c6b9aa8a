package dataset

import (
	"fmt"
)

// Encoding selects how the categorical neighborhood attribute is
// turned into model features (DESIGN.md §2, "Location encoding").
type Encoding int

const (
	// EncDefault is the zero value and resolves to EncCentroidOneHot,
	// the configuration whose results track the paper's figures (see
	// DESIGN.md §2).
	EncDefault Encoding = iota
	// EncCentroid encodes a record's neighborhood as the normalized
	// (row, col) centroid of its region: two continuous dimensions
	// whose effective granularity grows with tree height.
	EncCentroid
	// EncOneHot encodes the neighborhood as one indicator column per
	// region, the classic categorical treatment.
	EncOneHot
	// EncCentroidOneHot concatenates the centroid and one-hot
	// encodings.
	EncCentroidOneHot
)

// Resolve maps EncDefault to the concrete default encoding.
func (e Encoding) Resolve() Encoding {
	if e == EncDefault {
		return EncCentroidOneHot
	}
	return e
}

// String implements fmt.Stringer.
func (e Encoding) String() string {
	switch e {
	case EncDefault:
		return "default(centroid+onehot)"
	case EncCentroid:
		return "centroid"
	case EncOneHot:
		return "onehot"
	case EncCentroidOneHot:
		return "centroid+onehot"
	default:
		return fmt.Sprintf("Encoding(%d)", int(e))
	}
}

// Encoded is a design matrix with metadata about which columns came
// from the location attribute, so feature-importance reports can
// aggregate them back into a single "Neighborhood" entry (Figure 9).
//
// Columns are the continuous features first, then the location
// columns. Every location column depends only on the record's region,
// so the matrix is stored factorized: row i is concat(Base[i],
// Shared[Group[i]]), with the wide location block kept once per
// region. The grouped logistic-regression kernels (ml.GroupedDesign)
// train on this layout directly, never materializing the
// O(records × regions) one-hot matrix; every other consumer asks Rows
// for the dense rows it needs.
type Encoded struct {
	Names   []string
	LocCols []int // indices into Names of location-derived columns

	Base   [][]float64 // per-record continuous features (shares Record.X backing)
	Group  []int       // per-record region id
	Shared [][]float64 // per-region location columns
}

// Encode builds the design matrix of the dataset's continuous
// features plus the neighborhood attribute.
//
// regionOf[i] is the region id of record i in [0, numRegions);
// centroids[r] is the region's normalized (row, col) centroid in
// [0,1]² (ignored by EncOneHot). Base rows alias the records' feature
// slices and Group aliases regionOf (no copies); callers must not
// mutate either while the Encoded is in use.
func Encode(ds *Dataset, regionOf []int, numRegions int, centroids [][2]float64, enc Encoding) (*Encoded, error) {
	enc = enc.Resolve()
	if len(regionOf) != ds.Len() {
		return nil, fmt.Errorf("dataset: regionOf has %d entries, want %d", len(regionOf), ds.Len())
	}
	locDims, err := locationWidth(enc, numRegions, centroids)
	if err != nil {
		return nil, err
	}
	base := ds.NumFeatures()
	out := &Encoded{
		Names: make([]string, 0, base+locDims),
		Base:  make([][]float64, ds.Len()),
		Group: regionOf,
	}
	out.Names = append(out.Names, ds.FeatureNames...)
	if enc != EncOneHot {
		out.Names = append(out.Names, "loc:row", "loc:col")
	}
	if enc != EncCentroid {
		for r := 0; r < numRegions; r++ {
			out.Names = append(out.Names, fmt.Sprintf("loc:N%d", r))
		}
	}
	out.LocCols = make([]int, locDims)
	for i := range out.LocCols {
		out.LocCols[i] = base + i
	}

	for i := range ds.Records {
		r := regionOf[i]
		if r < 0 || r >= numRegions {
			return nil, fmt.Errorf("dataset: record %d: region %d out of range [0,%d)", i, r, numRegions)
		}
		out.Base[i] = ds.Records[i].X
	}
	// One shared location row per region, laid out as a single backing
	// array.
	backing := make([]float64, numRegions*locDims)
	out.Shared = make([][]float64, numRegions)
	for r := range out.Shared {
		row := backing[r*locDims : (r+1)*locDims : (r+1)*locDims]
		writeLocation(row, enc, r, centroids)
		out.Shared[r] = row
	}
	return out, nil
}

// Rows materializes the dense design rows of the records idx lists,
// in idx order (every record when idx is nil): row k is
// concat(Base[idx[k]], Shared[Group[idx[k]]]), len(Names) columns,
// all rows carved out of one backing array. Values are copied, never
// recomputed, so a row is bit-equal to EncodeRow's for its record.
func (e *Encoded) Rows(idx []int) [][]float64 {
	n := len(idx)
	if idx == nil {
		n = len(e.Base)
	}
	width := len(e.Names)
	backing := make([]float64, n*width)
	rows := make([][]float64, n)
	for k := range rows {
		i := k
		if idx != nil {
			i = idx[k]
		}
		row := backing[k*width : (k+1)*width : (k+1)*width]
		copy(row[copy(row, e.Base[i]):], e.Shared[e.Group[i]])
		rows[k] = row
	}
	return rows
}

// EncodeRow builds the model feature row for a single record: its
// continuous features x followed by the location columns for its
// region under the given encoding — one row of Encode's matrix,
// exposed so a serving index can score one individual without
// materializing a whole dataset.
func EncodeRow(x []float64, region, numRegions int, centroids [][2]float64, enc Encoding) ([]float64, error) {
	width, err := RowWidth(len(x), numRegions, centroids, enc)
	if err != nil {
		return nil, err
	}
	row := make([]float64, width)
	if err := EncodeRowInto(row, x, region, numRegions, centroids, enc); err != nil {
		return nil, err
	}
	return row, nil
}

// RowWidth returns the width of a model feature row over features
// continuous features: EncodeRow's length, EncodeRowInto's dst.
func RowWidth(features, numRegions int, centroids [][2]float64, enc Encoding) (int, error) {
	locDims, err := locationWidth(enc.Resolve(), numRegions, centroids)
	return features + locDims, err
}

// EncodeRowInto writes EncodeRow's row for x into dst, which must be
// RowWidth columns wide, so a caller scoring many records can encode
// them into scratch of its own.
func EncodeRowInto(dst, x []float64, region, numRegions int, centroids [][2]float64, enc Encoding) error {
	if region < 0 || region >= numRegions {
		return fmt.Errorf("dataset: region %d out of range [0,%d)", region, numRegions)
	}
	width, err := RowWidth(len(x), numRegions, centroids, enc)
	if err != nil {
		return err
	}
	if len(dst) != width {
		return fmt.Errorf("dataset: row of %d columns, want %d", len(dst), width)
	}
	clear(dst[copy(dst, x):])
	writeLocation(dst[len(x):], enc.Resolve(), region, centroids)
	return nil
}

// locationWidth returns how many location columns enc adds for
// numRegions regions, checking that centroids cover every region
// where the encoding reads them.
func locationWidth(enc Encoding, numRegions int, centroids [][2]float64) (int, error) {
	if enc != EncOneHot && len(centroids) < numRegions {
		return 0, fmt.Errorf("dataset: %d centroids for %d regions", len(centroids), numRegions)
	}
	switch enc {
	case EncCentroid:
		return 2, nil
	case EncOneHot:
		return numRegions, nil
	case EncCentroidOneHot:
		return 2 + numRegions, nil
	default:
		return 0, fmt.Errorf("dataset: unknown encoding %v", enc)
	}
}

// writeLocation writes region's location columns under a resolved,
// known enc into the zeroed dst: the centroid pair first (all but
// EncOneHot), then the region's one-hot indicator (all but
// EncCentroid).
func writeLocation(dst []float64, enc Encoding, region int, centroids [][2]float64) {
	if enc != EncOneHot {
		dst[0], dst[1] = centroids[region][0], centroids[region][1]
		dst = dst[2:]
	}
	if enc != EncCentroid {
		dst[region] = 1
	}
}

// AggregateImportance folds per-column importances back onto the
// dataset's named features plus one aggregate "Neighborhood" entry
// summing all location-derived columns, in Figure 9's feature order.
func (e *Encoded) AggregateImportance(imp []float64) (names []string, agg []float64, err error) {
	if len(imp) != len(e.Names) {
		return nil, nil, fmt.Errorf("dataset: %d importances for %d columns", len(imp), len(e.Names))
	}
	isLoc := make(map[int]bool, len(e.LocCols))
	for _, c := range e.LocCols {
		isLoc[c] = true
	}
	var locSum float64
	for i, v := range imp {
		if isLoc[i] {
			locSum += v
		} else {
			names = append(names, e.Names[i])
			agg = append(agg, v)
		}
	}
	names = append(names, "Neighborhood")
	agg = append(agg, locSum)
	return names, agg, nil
}
