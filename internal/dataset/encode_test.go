package dataset

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func encFixture(t *testing.T) (*Dataset, []int, [][2]float64) {
	t.Helper()
	ds := tinyDataset(t)
	regionOf := []int{0, 1, 1}
	centroids := [][2]float64{{0.25, 0.25}, {0.75, 0.75}}
	return ds, regionOf, centroids
}

func TestEncodeCentroid(t *testing.T) {
	ds, regionOf, centroids := encFixture(t)
	enc, err := Encode(ds, regionOf, 2, centroids, EncCentroid)
	if err != nil {
		t.Fatal(err)
	}
	rows := enc.Rows(nil)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	wantNames := []string{"f1", "f2", "loc:row", "loc:col"}
	if !reflect.DeepEqual(enc.Names, wantNames) {
		t.Errorf("names = %v, want %v", enc.Names, wantNames)
	}
	if !reflect.DeepEqual(enc.LocCols, []int{2, 3}) {
		t.Errorf("LocCols = %v", enc.LocCols)
	}
	if got := rows[0]; !reflect.DeepEqual(got, []float64{1, 2, 0.25, 0.25}) {
		t.Errorf("row 0 = %v", got)
	}
	if got := rows[2]; !reflect.DeepEqual(got, []float64{5, 6, 0.75, 0.75}) {
		t.Errorf("row 2 = %v", got)
	}
}

func TestEncodeOneHot(t *testing.T) {
	ds, regionOf, _ := encFixture(t)
	enc, err := Encode(ds, regionOf, 2, nil, EncOneHot)
	if err != nil {
		t.Fatal(err)
	}
	rows := enc.Rows(nil)
	if got := rows[0]; !reflect.DeepEqual(got, []float64{1, 2, 1, 0}) {
		t.Errorf("row 0 = %v", got)
	}
	if got := rows[1]; !reflect.DeepEqual(got, []float64{3, 4, 0, 1}) {
		t.Errorf("row 1 = %v", got)
	}
	for _, c := range enc.LocCols {
		if !strings.HasPrefix(enc.Names[c], "loc:") {
			t.Errorf("LocCols includes non-location column %q", enc.Names[c])
		}
	}
}

func TestEncodeCentroidOneHot(t *testing.T) {
	ds, regionOf, centroids := encFixture(t)
	enc, err := Encode(ds, regionOf, 2, centroids, EncCentroidOneHot)
	if err != nil {
		t.Fatal(err)
	}
	rows := enc.Rows(nil)
	if got := rows[1]; !reflect.DeepEqual(got, []float64{3, 4, 0.75, 0.75, 0, 1}) {
		t.Errorf("row 1 = %v", got)
	}
	if len(enc.LocCols) != 4 {
		t.Errorf("LocCols = %v, want 4 entries", enc.LocCols)
	}
}

func TestEncodeErrors(t *testing.T) {
	ds, regionOf, centroids := encFixture(t)
	if _, err := Encode(ds, regionOf[:1], 2, centroids, EncCentroid); err == nil {
		t.Error("expected regionOf length error")
	}
	if _, err := Encode(ds, regionOf, 5, centroids, EncCentroid); err == nil {
		t.Error("expected centroid count error")
	}
	if _, err := Encode(ds, []int{0, 1, 9}, 2, centroids, EncOneHot); err == nil {
		t.Error("expected out-of-range region error")
	}
	if _, err := Encode(ds, regionOf, 2, centroids, Encoding(99)); err == nil {
		t.Error("expected unknown encoding error")
	}
}

func TestEncodingString(t *testing.T) {
	tests := []struct {
		enc  Encoding
		want string
	}{
		{EncDefault, "default(centroid+onehot)"},
		{EncCentroid, "centroid"},
		{EncOneHot, "onehot"},
		{EncCentroidOneHot, "centroid+onehot"},
		{Encoding(7), "Encoding(7)"},
	}
	for _, tt := range tests {
		if got := tt.enc.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
	if EncDefault.Resolve() != EncCentroidOneHot {
		t.Error("EncDefault must resolve to EncCentroidOneHot")
	}
	if EncCentroid.Resolve() != EncCentroid {
		t.Error("Resolve must be identity on concrete encodings")
	}
}

func TestEncodeDefaultEncoding(t *testing.T) {
	ds, regionOf, centroids := encFixture(t)
	enc, err := Encode(ds, regionOf, 2, centroids, EncDefault)
	if err != nil {
		t.Fatal(err)
	}
	// Default = centroid + one-hot: 2 base + 2 centroid + 2 one-hot.
	if len(enc.Names) != 6 {
		t.Errorf("default encoding has %d columns, want 6: %v", len(enc.Names), enc.Names)
	}
}

func TestAggregateImportance(t *testing.T) {
	ds, regionOf, centroids := encFixture(t)
	enc, err := Encode(ds, regionOf, 2, centroids, EncCentroid)
	if err != nil {
		t.Fatal(err)
	}
	names, agg, err := enc.AggregateImportance([]float64{0.1, 0.2, 0.3, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"f1", "f2", "Neighborhood"}
	if !reflect.DeepEqual(names, wantNames) {
		t.Errorf("names = %v", names)
	}
	want := []float64{0.1, 0.2, 0.7}
	for i := range want {
		if math.Abs(agg[i]-want[i]) > 1e-12 {
			t.Errorf("agg[%d] = %v, want %v", i, agg[i], want[i])
		}
	}
	if _, _, err := enc.AggregateImportance([]float64{1}); err == nil {
		t.Error("expected length error")
	}
}
