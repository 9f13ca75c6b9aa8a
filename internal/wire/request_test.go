package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"

	fairindex "fairindex"
)

// postRequest builds a POST request for path, its body capped at
// bodyCap bytes by http.MaxBytesReader as the servers cap theirs
// (bodyCap < 0: uncapped).
func postRequest(path string, body []byte, bodyCap int64) *http.Request {
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if bodyCap >= 0 {
		r.Body = http.MaxBytesReader(httptest.NewRecorder(), r.Body, bodyCap)
	}
	return r
}

// referenceParseAppend is ParseAppend with encoding/json as the only
// decoder: the definition the codec must agree with.
func referenceParseAppend(r *http.Request, limit int) ([]fairindex.Record, int, error) {
	var req appendRequest
	if err := DecodeJSON(r, &req); err != nil {
		return nil, http.StatusBadRequest, err
	}
	return req.records(limit)
}

// sameRecords reports whether two decoded batches agree: ids, float
// bits, label values, and which lists were given at all.
func sameRecords(a, b []fairindex.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.ID != y.ID || math.Float64bits(x.Lat) != math.Float64bits(y.Lat) ||
			math.Float64bits(x.Lon) != math.Float64bits(y.Lon) ||
			(x.X == nil) != (y.X == nil) || len(x.X) != len(y.X) ||
			(x.Labels == nil) != (y.Labels == nil) || !slices.Equal(x.Labels, y.Labels) {
			return false
		}
		for j := range x.X {
			if math.Float64bits(x.X[j]) != math.Float64bits(y.X[j]) {
				return false
			}
		}
	}
	return true
}

// appendBody is a body of n records shaped like a real append: an id,
// coordinates, five features and two labels, as encoding/json writes it.
func appendBody(t testing.TB, n int) []byte {
	rng := rand.New(rand.NewSource(1))
	var req appendRequest
	for i := 0; i < n; i++ {
		rec := appendRecordJSON{ID: fmt.Sprintf("r%d", i), Lat: 33.6 + 0.8*rng.Float64(), Lon: -118.7 + 0.9*rng.Float64()}
		for j := 0; j < 5; j++ {
			rec.Features = append(rec.Features, rng.NormFloat64())
		}
		rec.Labels = []int{rng.Intn(2), rng.Intn(2)}
		req.Records = append(req.Records, rec)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestScanAppendSubset pins which append bodies take the hand-written
// path, as TestScanLocateBatchSubset does for batches.
func TestScanAppendSubset(t *testing.T) {
	fast := []string{
		`{"records":[{"id":"a","lat":34.05,"lon":-118.25,"features":[1,2.5,-3e-2],"labels":[0,1]}]}`,
		`{"records":[{"labels":[1],"features":[],"lon":1,"lat":2},{"id":"b c"}]}`,
		" {\n \"records\" : [ { \"lat\" : 1 } , { } ] } \t",
		`{"records":[]}`,
		`{}`,
	}
	for _, body := range fast {
		if _, ok := scanAppend([]byte(body)); !ok {
			t.Errorf("scanner refused %q", body)
		}
	}
	fallback := []string{
		``, `null`, `[]`, `{"records":null}`,
		`{"Records":[]}`,                                 // case-variant key
		`{"records":[],"records":[]}`,                    // duplicate key
		`{"records":[{"ID":"a"}]}`,                       // case-variant key
		`{"records":[{"lat":1,"lat":2}]}`,                // duplicate key
		`{"records":[{"id":"\u0061"}]}`,                  // escaped id
		`{"records":[{"id":"é"}]}`,                       // non-ASCII id
		`{"records":[{"id":null}]}`,                      // null
		`{"records":[{"features":null}]}`,                // null
		`{"records":[{"lat":1e400}]}`,                    // out of range
		`{"records":[{"labels":[1.5]}]}`,                 // fractional label
		`{"records":[{"labels":[1e0]}]}`,                 // exponent label
		`{"records":[{"labels":[9223372036854775808]}]}`, // past int64
		`{"records":[{"x":1}]}`,                          // unknown key
		`{"records":[{"lat":1}]}{}`,                      // trailing data
		`{"records":[{"lat":1}]`,                         // truncated
		`{"records":[1]}`,                                // not an object
	}
	for _, body := range fallback {
		if _, ok := scanAppend([]byte(body)); ok {
			t.Errorf("scanner accepted %q", body)
		}
	}
}

// FuzzAppendDecode is the append codec's differential proof: for any
// body, and any body-size cap short of it, ParseAppend and
// encoding/json alone give the same status, the same error text and
// the same records, float bits included.
func FuzzAppendDecode(f *testing.F) {
	for _, seed := range []string{
		`{"records":[{"id":"a","lat":34.05,"lon":-118.25,"features":[1,2.5,-3e-2],"labels":[0,1]}]}`,
		`{"records":[{"labels":[1],"features":[],"lon":1,"lat":2},{"id":"b c"}]}`,
		`{"records":[{"id":"a","lat":34.05223456789012,"lon":-118.24368432571237,"features":[0.1,-0.2],"labels":[1]},{"id":"b","lat":33.6,"lon":-117.8,"features":[4.9e-324,1.7976931348623157e308],"labels":[0]}]}`,
		`{"records":[]}`, `{}`, ``, `null`, `[]`, `{"records":null}`,
		`{"Records":[{"lat":1}]}`,
		`{"records":[],"records":[{"lat":1}]}`,
		`{"records":[{"lat":1,"lat":2}]}`,
		`{"records":[{"id":"\u0061","lat":1}]}`,
		`{"records":[{"id":"é"}]}`,
		`{"records":[{"id":null,"features":null,"labels":null}]}`,
		`{"records":[{"lat":1e400}]}`,
		`{"records":[{"lat":-0,"lon":1e-400}]}`,
		`{"records":[{"labels":[1.5]}]}`,
		`{"records":[{"labels":[1e0]}]}`,
		`{"records":[{"labels":[9223372036854775807,-9223372036854775808]}]}`,
		`{"records":[{"labels":[9223372036854775808]}]}`,
		`{"records":[{"x":1}]}`,
		`{"records":[{"lat":"1"}]}`,
		`{"records":[{"lat":1}]}{}`,
		`{"records":[{"lat":1}]} x`,
		`{"records":[1]}`,
		`{"records":[{},{},{},{},{}]}`,
	} {
		f.Add([]byte(seed), uint16(0))
	}
	whole := `{"records":[{"id":"a","lat":34.05,"lon":-1e-7,"features":[1E21],"labels":[0]}]}`
	for i := 0; i < len(whole); i += 7 {
		f.Add([]byte(whole[:i]), uint16(0))
		f.Add([]byte(whole), uint16(len(whole)-i))
	}
	f.Fuzz(func(t *testing.T, body []byte, cut uint16) {
		const limit = 4
		bodyCap := int64(-1)
		if cut > 0 && int(cut) <= len(body) {
			bodyCap = int64(len(body) - int(cut))
		}
		got, gotStatus, gotErr := ParseAppend(postRequest("/v1/append", body, bodyCap), limit)
		want, wantStatus, wantErr := referenceParseAppend(postRequest("/v1/append", body, bodyCap), limit)
		if gotStatus != wantStatus || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("body %q cap %d: got (%d, %v), encoding/json (%d, %v)",
				body, bodyCap, gotStatus, gotErr, wantStatus, wantErr)
		}
		if !sameRecords(got, want) {
			t.Fatalf("body %q: got %+v, encoding/json %+v", body, got, want)
		}
	})
}

// referenceParseStats decodes a stats request body by encoding/json
// alone.
func referenceParseStats(body []byte) (StatsRequest, error) {
	var req StatsRequest
	err := decodeJSON(bytes.NewReader(body), &req)
	return req, err
}

// sameStatsRequest reports whether two decoded stats requests agree,
// rect bits and the nil-ness of each list included.
func sameStatsRequest(a, b StatsRequest) bool {
	if (a.Rect == nil) != (b.Rect == nil) {
		return false
	}
	if a.Rect != nil {
		for _, p := range [4][2]float64{{a.Rect.MinLat, b.Rect.MinLat}, {a.Rect.MinLon, b.Rect.MinLon},
			{a.Rect.MaxLat, b.Rect.MaxLat}, {a.Rect.MaxLon, b.Rect.MaxLon}} {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				return false
			}
		}
	}
	a.Rect, b.Rect = nil, nil
	return reflect.DeepEqual(a, b)
}

// TestScanStatsRequestSubset pins which stats request bodies take the
// hand-written path.
func TestScanStatsRequestSubset(t *testing.T) {
	fast := []string{
		`{"task":0,"regions":[1,2,3]}`,
		`{"sums":true,"metrics":["ence","stat_parity"],"regions":[],"task":-1}`,
		`{"rect":{"max_lon":-117.8,"min_lat":33.6,"min_lon":-118.7,"max_lat":34.4},"metrics":[],"sums":false}`,
		`{"rect":{}}`,
		` { } `,
	}
	for _, body := range fast {
		if _, ok := scanStatsRequest([]byte(body)); !ok {
			t.Errorf("scanner refused %q", body)
		}
	}
	fallback := []string{
		``, `null`, `[]`,
		`{"Task":0}`,                         // case-variant key
		`{"task":0,"task":1}`,                // duplicate key
		`{"regions":null}`,                   // null
		`{"rect":null}`,                      // null
		`{"metrics":null}`,                   // null
		`{"sums":null}`,                      // null
		`{"task":1.0}`,                       // fractional task
		`{"regions":[1e1]}`,                  // exponent region
		`{"rect":{"min_lat":1e400}}`,         // out of range
		`{"rect":{"min_lat":1,"min_lat":2}}`, // duplicate key
		`{"rect":{"MinLat":1}}`,              // unknown key
		`{"metrics":["\u0065nce"]}`,          // escaped name
		`{"metrics":[1]}`,                    // number name
		`{"sums":1}`,                         // number flag
		`{"sums":truex}`,                     // malformed literal
		`{"x":1}`,                            // unknown key
		`{"task":0}{}`,                       // trailing data
		`{"task":0`,                          // truncated
	}
	for _, body := range fallback {
		if _, ok := scanStatsRequest([]byte(body)); ok {
			t.Errorf("scanner accepted %q", body)
		}
	}
}

// FuzzStatsRequestDecode is the stats request codec's differential
// proof: for any body, the scanner with its encoding/json fallback and
// encoding/json alone give the same error text and the same request.
func FuzzStatsRequestDecode(f *testing.F) {
	for _, seed := range []string{
		`{"task":0,"regions":[1,2,3]}`,
		`{"sums":true,"metrics":["ence","stat_parity"],"regions":[],"task":-1}`,
		`{"rect":{"max_lon":-117.8,"min_lat":33.6,"min_lon":-118.7,"max_lat":34.4},"metrics":[],"sums":false}`,
		`{"task":0,"rect":{"min_lat":33.60000000000001,"min_lon":-118.7,"max_lat":-0,"max_lon":4.9e-324}}`,
		`{"rect":{}}`, `{}`, ``, `null`, `[]`,
		`{"Task":0}`, `{"task":0,"task":1}`, `{"regions":null}`, `{"rect":null}`,
		`{"metrics":null}`, `{"sums":null}`, `{"task":1.0}`, `{"regions":[1e1]}`,
		`{"task":9223372036854775808}`, `{"rect":{"min_lat":1e400}}`,
		`{"rect":{"min_lat":1,"min_lat":2}}`, `{"metrics":["\u0065nce"]}`,
		`{"metrics":["é"]}`, `{"metrics":[1]}`, `{"sums":1}`, `{"sums":truex}`,
		`{"x":1}`, `{"task":0}{}`, `{"task":0}]`, `{"task":0`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := decodeBody(bytes.NewReader(body), scanStatsRequest)
		want, wantErr := referenceParseStats(body)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("body %q: got %v, encoding/json %v", body, gotErr, wantErr)
		}
		if wantErr == nil && !sameStatsRequest(got, want) {
			t.Fatalf("body %q: got %+v, encoding/json %+v", body, got, want)
		}
	})
}

// BenchmarkParseAppend decodes a 100-record append body, the size the
// load generator sends, by the codec and by encoding/json alone.
func BenchmarkParseAppend(b *testing.B) {
	body := appendBody(b, 100)
	for _, bc := range []struct {
		name  string
		parse func(*http.Request, int) ([]fairindex.Record, int, error)
	}{{"codec", ParseAppend}, {"encoding_json", referenceParseAppend}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			br := bytes.NewReader(body)
			r := httptest.NewRequest(http.MethodPost, "/v1/append", br)
			for i := 0; i < b.N; i++ {
				br.Reset(body)
				if _, status, err := bc.parse(r, DefaultMaxBatch); err != nil {
					b.Fatal(status, err)
				}
			}
		})
	}
}
