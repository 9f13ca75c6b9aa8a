package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
)

// batchRequest builds a /v1/locate_batch request, its body capped at
// bodyCap bytes by http.MaxBytesReader as the servers cap theirs
// (bodyCap < 0: uncapped).
func batchRequest(body []byte, bodyCap int64) *http.Request {
	r := httptest.NewRequest(http.MethodPost, "/v1/locate_batch", bytes.NewReader(body))
	if bodyCap >= 0 {
		r.Body = http.MaxBytesReader(httptest.NewRecorder(), r.Body, bodyCap)
	}
	return r
}

// referenceParseLocateBatch is ParseLocateBatch with encoding/json as
// the only decoder: the definition the codec must agree with.
func referenceParseLocateBatch(r *http.Request, limit int) (LocateBatchRequest, int, error) {
	var req LocateBatchRequest
	if err := DecodeJSON(r, &req); err != nil {
		return req, http.StatusBadRequest, err
	}
	status, err := checkLocateBatch(req, limit)
	return req, status, err
}

func TestParseLocateBatchStatus(t *testing.T) {
	cases := []struct {
		name    string
		body    string
		limit   int
		bodyCap int64
		status  int
		err     string
	}{
		{"ok", `{"lats":[1,2],"lons":[3,4]}`, 2, -1, 0, ""},
		{"length mismatch", `{"lats":[1,2],"lons":[3]}`, 8, -1, http.StatusBadRequest, "2 lats vs 1 lons"},
		{"missing list", `{"lats":[1]}`, 8, -1, http.StatusBadRequest, "1 lats vs 0 lons"},
		{"empty", `{"lats":[],"lons":[]}`, 8, -1, http.StatusBadRequest, "empty batch"},
		{"over the limit", `{"lats":[1,2,3],"lons":[4,5,6]}`, 2, -1, http.StatusRequestEntityTooLarge,
			"batch of 3 points exceeds limit 2"},
		// The same read error MaxBodyBytes raises, at a cap a test can
		// afford to exceed.
		{"over the body cap", `{"lats":[1,2,3],"lons":[4,5,6]}`, 8, 16, http.StatusBadRequest,
			"invalid JSON body: http: request body too large"},
		{"trailing data", `{"lats":[1],"lons":[2]}{}`, 8, -1, http.StatusBadRequest, "invalid JSON body: trailing data"},
		{"unknown field", `{"lats":[1],"lons":[2],"x":1}`, 8, -1, http.StatusBadRequest,
			`invalid JSON body: json: unknown field "x"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, status, err := ParseLocateBatch(batchRequest([]byte(tc.body), tc.bodyCap), tc.limit)
			if status != tc.status {
				t.Errorf("status %d, want %d", status, tc.status)
			}
			if got := fmt.Sprint(err); (err == nil) != (tc.err == "") || (err != nil && got != tc.err) {
				t.Errorf("error %q, want %q", got, tc.err)
			}
			if tc.status == 0 && (len(req.Lats) != 2 || req.Lats[1] != 2 || req.Lons[1] != 4) {
				t.Errorf("decoded %+v", req)
			}
		})
	}
}

// TestScanLocateBatchSubset pins which inputs take the hand-written
// path. The fuzz target proves the answers agree either way; this test
// keeps the fast path from silently degrading to the fallback.
func TestScanLocateBatchSubset(t *testing.T) {
	fast := []string{
		`{"lats":[1,2],"lons":[3,4]}`,
		`{"lons":[3,4],"lats":[1,2]}`,
		" \t\r\n{ \"lats\" : [ 1 , -0.5e-3 ] ,\n\"lons\":[ 0,4E+2 ] }\n ",
		`{"lats":[],"lons":[]}`,
		`{"lats":[-0],"lons":[4.9e-324]}`,
	}
	for _, body := range fast {
		if _, ok := scanLocateBatch([]byte(body)); !ok {
			t.Errorf("scanner refused %q", body)
		}
	}
	fallback := []string{
		``, ` `, `null`, `[]`,
		`{"Lats":[1],"lons":[2]}`,            // case-variant key
		`{"l\u0061ts":[1],"lons":[2]}`,       // escaped key
		`{"lats":[1],"lats":[1],"lons":[2]}`, // duplicate key
		`{"lats":[1],"lons":[2],"lons":[2]}`, // duplicate key
		`{"lats":null,"lons":[2]}`,           // null
		`{"lats":[null],"lons":[2]}`,         // null element
		`{"lats":[1e400],"lons":[2]}`,        // out of range
		`{"lats":[1],"lons":[2]}{}`,          // trailing data
		`{"lats":[1],"lons":[2]}]`,           // trailing data encoding/json forgives
		`{"lats":[1]}`,                       // missing key
		`{"lats":[1],"lons":[2],"x":0}`,      // unknown key
		`{"lats":[01],"lons":[2]}`,           // leading zero
		`{"lats":[1.],"lons":[2]}`,           // bare point
		`{"lats":[.5],"lons":[2]}`,           // no integer part
		`{"lats":[+1],"lons":[2]}`,           // plus sign
		`{"lats":[1e],"lons":[2]}`,           // empty exponent
		`{"lats":[0x1p-2],"lons":[2]}`,       // hex float
		`{"lats":[1,],"lons":[2]}`,           // trailing comma
		`{"lats":["1"],"lons":[2]}`,          // string element
		`{"lats":[1],"lons":[2],}`,           // trailing comma
		"\ufeff{\"lats\":[1],\"lons\":[2]}",  // byte order mark
		`{"lats":[1],"lons":[2]`,             // truncated
	}
	for _, body := range fallback {
		if _, ok := scanLocateBatch([]byte(body)); ok {
			t.Errorf("scanner accepted %q", body)
		}
	}
}

// FuzzLocateBatchDecode is the codec's differential proof: for any
// body, and any body-size cap short of it, ParseLocateBatch (scanner
// with encoding/json fallback) and encoding/json alone give the same
// status, the same error text and bit-identical coordinates.
func FuzzLocateBatchDecode(f *testing.F) {
	for _, seed := range []string{
		`{"lats":[34.05,-118.25],"lons":[1,2]}`,
		`{"lons":[3,4],"lats":[1,2]}`,
		`{"Lats":[1],"lons":[2]}`,
		`{"LONS":[1],"lats":[2]}`,
		`{"l\u0061ts":[1],"lons":[2]}`,
		`{"lats":[1],"lats":[1],"lons":[2]}`,
		`{"lats":null,"lons":[2]}`,
		`{"lats":[1],"lons":null}`,
		`{"lats":[1e400],"lons":[2]}`,
		`{"lats":[-1e400],"lons":[2]}`,
		`{"lats":[1],"lons":[2]}{}`,
		`{"lats":[1],"lons":[2]}]`,
		`{"lats":[1],"lons":[2]} x`,
		`{"lats":[-0],"lons":[0]}`,
		`{"lats":[01],"lons":[2]}`,
		`{"lats":[1.],"lons":[2]}`,
		`{"lats":[.5],"lons":[2]}`,
		`{"lats":[+1],"lons":[2]}`,
		`{"lats":[4.9e-324],"lons":[2.4703282292062327e-324]}`,
		`{"lats":[1e-400],"lons":[1.7976931348623157e308]}`,
		`{"lats":[],"lons":[]}`,
		`{"lats":[1,2],"lons":[3]}`,
		`{"lats":[1],"lons":[2],"x":0}`,
		`{"lats":["1"],"lons":[2]}`,
		`{"lats":[true],"lons":[2]}`,
		`{"lats":[[1]],"lons":[2]}`,
		"\ufeff{\"lats\":[1],\"lons\":[2]}",
		``, ` `, `null`, `[]`, `{}`,
	} {
		f.Add([]byte(seed), uint16(0))
	}
	// Truncated bodies, and bodies cut short by the size cap.
	whole := `{"lats":[34.05, -1e-7],"lons":[1E21, 0.000001]}`
	for i := 0; i < len(whole); i += 5 {
		f.Add([]byte(whole[:i]), uint16(0))
		f.Add([]byte(whole), uint16(len(whole)-i))
	}
	f.Fuzz(func(t *testing.T, body []byte, cut uint16) {
		const limit = 4
		bodyCap := int64(-1)
		if cut > 0 && int(cut) <= len(body) {
			bodyCap = int64(len(body) - int(cut))
		}
		got, gotStatus, gotErr := ParseLocateBatch(batchRequest(body, bodyCap), limit)
		want, wantStatus, wantErr := referenceParseLocateBatch(batchRequest(body, bodyCap), limit)
		if gotStatus != wantStatus || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("body %q cap %d: got (%d, %v), encoding/json (%d, %v)",
				body, bodyCap, gotStatus, gotErr, wantStatus, wantErr)
		}
		if wantErr != nil {
			return
		}
		for _, pair := range [2][2][]float64{{got.Lats, want.Lats}, {got.Lons, want.Lons}} {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("body %q: %d values, encoding/json %d", body, len(pair[0]), len(pair[1]))
			}
			for i := range pair[0] {
				if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
					t.Fatalf("body %q: value %d is %v, encoding/json %v", body, i, pair[0][i], pair[1][i])
				}
			}
		}
	})
}

// edgeFloats are the values where encoding/json's float format
// switches form or rounds: signed zeros, both sides of the 1e-6 and
// 1e21 exponent cutoffs, subnormals, the extremes, and random bit
// patterns.
func edgeFloats() []float64 {
	fs := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 34.05, -118.25, 123456789, 1e20,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e-7, 1.5e-7, 9.999e-7,
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 1e22, 1.234e100,
		5e-324, 2.5e-323, math.SmallestNonzeroFloat64 * 12345, 2.2250738585072014e-308,
		math.Nextafter(2.2250738585072014e-308, 0), math.MaxFloat64, -math.MaxFloat64,
	}
	for _, f := range fs[:len(fs):len(fs)] {
		fs = append(fs, -f)
	}
	rng := rand.New(rand.NewSource(13))
	for len(fs) < 2000 {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			fs = append(fs, f)
		}
	}
	return fs
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range edgeFloats() {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat([]byte("x"), f); string(got) != "x"+string(want) {
			t.Errorf("AppendFloat(%b) = %s, encoding/json %s", f, got[1:], want)
		}
		for _, v := range []any{Float(f), Distance(f)} {
			if got, err := json.Marshal(v); err != nil || string(got) != string(want) {
				t.Errorf("%T(%b) = %s (%v), encoding/json %s", v, f, got, err, want)
			}
		}
	}
	for _, v := range []any{Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)), Distance(math.Inf(1))} {
		if got, err := json.Marshal(v); err != nil || string(got) != "null" {
			t.Errorf("%T(%v) = %s (%v), want null", v, v, got, err)
		}
	}
}

func TestWriteLocateBatchMatchesWriteJSON(t *testing.T) {
	const invalid = -1 // fairindex.RegionInvalid
	for _, resp := range []LocateBatchResponse{
		{Regions: []int{0}},
		{Regions: []int{3, 0, 17, 4095, math.MaxInt, math.MinInt}},
		{Regions: []int{}},
		{Regions: nil},
		{Regions: []int{2, invalid, 5}, Invalid: 1, Error: "fairindex: point 1: non-finite coordinate (NaN, 0)"},
		{Regions: []int{invalid}, Invalid: 1, Error: `<"quoted" & escaped>`},
	} {
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		if err := WriteLocateBatch(got, resp); err != nil {
			t.Fatal(err)
		}
		if err := WriteJSON(want, http.StatusOK, resp); err != nil {
			t.Fatal(err)
		}
		if got.Code != want.Code || got.Body.String() != want.Body.String() ||
			got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Errorf("%+v: wrote %d %q %q, WriteJSON %d %q %q", resp,
				got.Code, got.Header().Get("Content-Type"), got.Body, want.Code, want.Header().Get("Content-Type"), want.Body)
		}
	}
}

// TestLocateBatchCodecAllocs pins what the batch path allocates once
// its pools are warm: the two coordinate slices per request, next to
// nothing per reply. encoding/json back on the path costs dozens per
// call.
func TestLocateBatchCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	var req LocateBatchRequest
	regions := make([]int, 1000)
	for i := range regions {
		req.Lats = append(req.Lats, 34+float64(i)/1e4)
		req.Lons = append(req.Lons, -118-float64(i)/1e4)
		regions[i] = i % 300
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	br := bytes.NewReader(body)
	r := httptest.NewRequest(http.MethodPost, "/v1/locate_batch", br)
	reply := httptest.NewRecorder()
	for _, tc := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"ParseLocateBatch", 2, func() {
			br.Reset(body)
			if _, _, err := ParseLocateBatch(r, DefaultMaxBatch); err != nil {
				t.Fatal(err)
			}
		}},
		// One: the Content-Type header value every reply sets.
		{"WriteLocateBatch", 1, func() {
			reply.Body.Reset()
			WriteLocateBatch(reply, LocateBatchResponse{Regions: regions})
		}},
	} {
		if got := testing.AllocsPerRun(100, tc.run); got > tc.max {
			t.Errorf("%s: %v allocs per call, want at most %v", tc.name, got, tc.max)
		}
	}
}

// BenchmarkParseLocateBatch decodes a 1000-point batch by the codec
// and by encoding/json alone.
func BenchmarkParseLocateBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var req LocateBatchRequest
	for i := 0; i < 1000; i++ {
		req.Lats = append(req.Lats, 33.6+0.8*rng.Float64())
		req.Lons = append(req.Lons, -118.7+0.9*rng.Float64())
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		parse func(*http.Request, int) (LocateBatchRequest, int, error)
	}{{"codec", ParseLocateBatch}, {"encoding_json", referenceParseLocateBatch}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			br := bytes.NewReader(body)
			r := httptest.NewRequest(http.MethodPost, "/v1/locate_batch", br)
			for i := 0; i < b.N; i++ {
				br.Reset(body)
				if _, status, err := bc.parse(r, DefaultMaxBatch); err != nil {
					b.Fatal(status, err)
				}
			}
		})
	}
}

// brokenWriter is a ResponseWriter whose body writes fail, as when the
// client has gone away.
type brokenWriter struct{ httptest.ResponseRecorder }

func (b *brokenWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }

// A Replier logs a body it could not write on its own logger, tagged
// with its component; a written body logs nothing.
func TestReplierLogsFailedWrites(t *testing.T) {
	var logged bytes.Buffer
	r := Replier{Logger: log.New(&logged, "", 0), Component: "server"}
	r.Error(&brokenWriter{*httptest.NewRecorder()}, http.StatusBadRequest, errors.New("bad"))
	if got, want := logged.String(), "server: writing response: client gone\n"; got != want {
		t.Fatalf("logged %q, want %q", got, want)
	}
	logged.Reset()
	rec := httptest.NewRecorder()
	r.JSON(rec, http.StatusOK, LocateResponse{Region: 3})
	if logged.Len() != 0 || rec.Code != http.StatusOK || rec.Body.String() != "{\"region\":3}\n" {
		t.Fatalf("ok reply: code %d body %q log %q", rec.Code, rec.Body.String(), logged.String())
	}
}
