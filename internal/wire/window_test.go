package wire

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	fairindex "fairindex"
)

// quadrantLayout is a 4x4 grid over the unit box split into four 2x2
// quadrant regions: 0 south-west, 1 south-east, 2 north-west, 3
// north-east.
func quadrantLayout(t *testing.T) *fairindex.Layout {
	t.Helper()
	cells := make([]int, 16)
	for i := range cells {
		row, col := i/4, i%4
		cells[i] = 2*(row/2) + col/2
	}
	l, err := fairindex.NewLayout(fairindex.MustGrid(4, 4), fairindex.BBox{MinLat: 0, MinLon: 0, MaxLat: 1, MaxLon: 1}, cells)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestWindowRegions(t *testing.T) {
	l := quadrantLayout(t)
	whole := &Rect{MinLat: 0, MinLon: 0, MaxLat: 1, MaxLon: 1}
	cases := []struct {
		name    string
		regions []int
		rect    *Rect
		limit   int
		want    []int
		status  int
		err     string
	}{
		// A malformed rect is refused before the cap: a limit of zero
		// would refuse any window that got that far.
		{"inverted rect", nil, &Rect{MinLat: 1, MaxLat: 0, MaxLon: 1}, 0, nil, http.StatusBadRequest,
			"fairindex: invalid query: inverted rectangle {MinLat:1 MinLon:0 MaxLat:0 MaxLon:1}"},
		{"NaN rect", nil, &Rect{MinLat: math.NaN(), MaxLat: 1, MaxLon: 1}, 0, nil, http.StatusBadRequest,
			"fairindex: invalid query: non-finite rectangle {MinLat:NaN MinLon:0 MaxLat:1 MaxLon:1}"},
		// The cap counts the regions a rect resolves to, so a rect
		// cannot carry a larger window than a list may.
		{"rect over the cap", nil, whole, 3, nil, http.StatusRequestEntityTooLarge,
			"window of 4 regions exceeds limit 3"},
		{"list over the cap", []int{0, 1, 2, 3}, nil, 3, nil, http.StatusRequestEntityTooLarge,
			"window of 4 regions exceeds limit 3"},
		{"rect at the cap", nil, whole, 4, []int{0, 1, 2, 3}, 0, ""},
		{"rect in one quadrant", nil, &Rect{MinLat: 0.6, MinLon: 0.1, MaxLat: 0.9, MaxLon: 0.4}, 4, []int{2}, 0, ""},
		{"rect off the box", nil, &Rect{MinLat: 2, MinLon: 2, MaxLat: 3, MaxLon: 3}, 4, []int{}, 0, ""},
		// The list itself is the aggregation's to check.
		{"list as given", []int{3, 1, 1}, nil, 4, []int{3, 1, 1}, 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, status, err := WindowRegions(l, tc.regions, tc.rect, tc.limit)
			if status != tc.status {
				t.Errorf("status %d, want %d", status, tc.status)
			}
			if msg := fmt.Sprint(err); (err == nil) != (tc.err == "") || (err != nil && msg != tc.err) {
				t.Errorf("error %q, want %q", msg, tc.err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("regions %v, want %v", got, tc.want)
			}
		})
	}
}

// TestParseStatsRepeatedParams pins the GET grammar for repeated
// window parameters: regions= values fold into one list, a second
// rect= is a second window and refused.
func TestParseStatsRepeatedParams(t *testing.T) {
	cases := []struct {
		query   string
		regions []int
		err     string
	}{
		{"task=0&regions=0&regions=1", []int{0, 1}, ""},
		{"task=0&regions=0,1&regions=2", []int{0, 1, 2}, ""},
		{"task=0&regions=&regions=4", []int{4}, ""},
		{"task=0&regions=0&regions=x", nil, `query parameter "regions": strconv.Atoi: parsing "x": invalid syntax`},
		{"task=0&rect=0,0,1,1&rect=0,0,2,2", nil, `query parameter "rect" given 2 times: want one window`},
		{"task=0&rect=0,0,1,1&rect=", nil, `query parameter "rect" given 2 times: want one window`},
	}
	for _, tc := range cases {
		req, err := ParseStats(httptest.NewRequest(http.MethodGet, "/v1/stats?"+tc.query, nil))
		if msg := fmt.Sprint(err); (err == nil) != (tc.err == "") || (err != nil && msg != tc.err) {
			t.Errorf("%s: error %q, want %q", tc.query, msg, tc.err)
			continue
		}
		if err == nil && !reflect.DeepEqual(req.Regions, tc.regions) {
			t.Errorf("%s: regions %v, want %v", tc.query, req.Regions, tc.regions)
		}
	}
}
