package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	fairindex "fairindex"
)

// statsReply builds an n-region reply shaped like a real window's:
// every registered metric, NaN where a ratio is undefined, with or
// without the raw sums.
func statsReply(n int, sums bool) StatsResponse {
	rng := rand.New(rand.NewSource(int64(n)))
	ws := fairindex.WindowStats{
		Task: 1, MeanConf: 0.25, PosRate: math.NaN(), Miscal: 1e-7, CalRatio: math.Inf(1), ENCE: 0.125,
		Metrics: map[string]float64{
			"ence": 0.125, "cal_ratio": math.NaN(), "miscal_abs": 3e21,
			"stat_parity": math.Inf(-1), "accuracy_parity": -0.5, "atkinson": math.Copysign(0, -1),
		},
	}
	for i := 0; i < n; i++ {
		count := 1 + rng.Intn(40)
		score, label := float64(count)*rng.Float64(), float64(rng.Intn(count+1))
		ws.Count += count
		ws.Regions = append(ws.Regions, fairindex.RegionStat{
			Region: 4 * i, Count: count, MeanConf: score / float64(count), PosRate: label / float64(count),
			Miscal: math.Abs(score-label) / float64(count), CalRatio: score / label, SumScore: score, SumLabel: label,
		})
	}
	return NewStatsResponse(ws, sums)
}

// edgeStatsReply is statsReply(n, true) carrying edgeFloats' values in
// every float field.
func edgeStatsReply(n int) StatsResponse {
	fs := edgeFloats()
	resp := statsReply(n, true)
	for i := range resp.Regions {
		rs := &resp.Regions[i]
		rs.MeanConf, rs.PosRate, rs.Miscal, rs.CalRatio = Float(fs[4*i]), Float(fs[4*i+1]), Float(fs[4*i+2]), Float(fs[4*i+3])
		*rs.SumScore, *rs.SumLabel = fs[2*i], fs[2*i+1]
	}
	return resp
}

// sumsBody is what a shard answers the router's n-region sums request,
// which names no metrics.
func sumsBody(t testing.TB, n int) []byte {
	t.Helper()
	resp := statsReply(n, true)
	resp.Metrics = nil
	rec := httptest.NewRecorder()
	if err := WriteStats(rec, resp); err != nil {
		t.Fatal(err)
	}
	return rec.Body.Bytes()
}

// writeBoth writes resp through WriteStats and through WriteJSON.
func writeBoth(resp StatsResponse) (got, want *httptest.ResponseRecorder, gotErr, wantErr error) {
	got, want = httptest.NewRecorder(), httptest.NewRecorder()
	return got, want, WriteStats(got, resp), WriteJSON(want, http.StatusOK, resp)
}

// sameReply reports whether two recorded replies agree in status,
// Content-Type and body.
func sameReply(got, want *httptest.ResponseRecorder) bool {
	return got.Code == want.Code && got.Body.String() == want.Body.String() &&
		got.Header().Get("Content-Type") == want.Header().Get("Content-Type")
}

func TestWriteStatsMatchesWriteJSON(t *testing.T) {
	inf := math.Inf(1)
	withMetrics := func(names ...string) StatsResponse {
		resp := statsReply(2, false)
		resp.Metrics = map[string]Float{}
		for i, name := range names {
			resp.Metrics[name] = Float(i)
		}
		return resp
	}
	partial := statsReply(3, true)
	partial.Partial, partial.FailedShards = true, []string{"s1", `s"2`}
	infSum := statsReply(3, true)
	infSum.Regions[1].SumLabel = &inf
	emptyFailed := statsReply(1, true)
	emptyFailed.FailedShards = []string{}
	for _, tc := range []struct {
		name string
		resp StatsResponse
		fast bool // appended by hand, not left to WriteJSON
	}{
		{"sums", statsReply(60, true), true},
		{"no sums", statsReply(60, false), true},
		{"edge floats", edgeStatsReply(len(edgeFloats()) / 4), true},
		{"empty window", NewStatsResponse(fairindex.WindowStats{Metrics: map[string]float64{}}, true), true},
		{"regions null", StatsResponse{ENCE: Float(math.NaN())}, true},
		{"failed_shards empty", emptyFailed, true},
		{"many metrics", withMetrics("z", "y", "x", "w", "v", "u", "t", "s", "r", "q", "p", "o", "n", "m", "l", "k", "j", "i", "h"), true},
		{"printable metric names", withMetrics("a b", "~!#$%()*+-./:;=?@[]^_`{|}"), true},
		{"partial", partial, false},
		{"non-finite sum", infSum, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, fast := appendStats(nil, tc.resp); fast != tc.fast {
				t.Errorf("appended by hand: %v, want %v", fast, tc.fast)
			}
			got, want, gotErr, wantErr := writeBoth(tc.resp)
			if !sameReply(got, want) || (gotErr == nil) != (wantErr == nil) {
				t.Errorf("wrote %d %q (%v), WriteJSON %d %q (%v)", got.Code, got.Body, gotErr, want.Code, want.Body, wantErr)
			}
		})
	}
	// Every name encoding/json would escape leaves the reply to it.
	for _, name := range []string{`a"b`, `a\b`, "<b>", "a&b", "tab\t", "\x00", "\x7f", "é", "\u2028", "\xff"} {
		resp := withMetrics("ence", name)
		if _, fast := appendStats(nil, resp); fast {
			t.Errorf("metric name %q appended by hand", name)
		}
		if got, want, _, _ := writeBoth(resp); !sameReply(got, want) {
			t.Errorf("metric name %q: wrote %q, WriteJSON %q", name, got.Body, want.Body)
		}
	}
}

// TestScanStatsSumsSubset pins which sums replies take the
// hand-written path: what WriteStats writes for a sums reply, and
// nothing outside the subset. FuzzStatsCodec proves the answers agree
// either way; this test keeps the fast path from silently degrading to
// the fallback.
func TestScanStatsSumsSubset(t *testing.T) {
	for _, n := range []int{0, 1, 60} {
		if body := sumsBody(t, n); !isScanned(body) {
			t.Errorf("scanner refused the %d-region reply %q", n, body)
		}
	}
	edge := edgeStatsReply(len(edgeFloats()) / 4)
	edge.Metrics = nil
	rec := httptest.NewRecorder()
	if err := WriteStats(rec, edge); err != nil || !isScanned(rec.Body.Bytes()) {
		t.Errorf("scanner refused the edge-float reply (%v)", err)
	}
	const (
		head = `{"task":0,"count":3,"mean_conf":0.5,"pos_rate":null,"miscal":0,"cal_ratio":1,"ence":0,"regions":[`
		reg  = `{"region":2,"count":3,"mean_conf":0.5,"pos_rate":null,"miscal":0,"cal_ratio":1,"sum_score":1.5,"sum_label":1}`
	)
	fast := []string{
		head + reg + `]}`,
		head + reg + "," + reg + "]}\n",
		" \t\r\n" + `{ "task" : 0 , "count":3,"mean_conf":-0,"pos_rate":1E-400,"miscal":4.9e-324,"cal_ratio":1e21,"ence":null,"regions" : [ ] } `,
	}
	for _, body := range fast {
		if !isScanned([]byte(body)) {
			t.Errorf("scanner refused %q", body)
		}
	}
	fallback := []string{
		``, `null`, `{}`, `[]`, "not json",
		`{"task":0,"count":3,"mean_conf":0.5,"pos_rate":null,"miscal":0,"cal_ratio":1,"ence":0,"regions":null}`,
		head + reg + `]`,                                 // truncated
		head + reg + `]}{}`,                              // trailing data
		head + reg + `,]}`,                               // trailing comma
		head + `{"region":2,"count":3}]}`,                // no sums
		head + `{"count":3,"region":2` + reg[21:] + `]}`, // reordered keys
		head + `{"Region":2` + reg[11:] + `]}`,           // case-variant key
		head + `{"region":2,"region":2` + reg[11:] + `]}`,
		head + `{"region":9223372036854775808` + reg[11:] + `]}`,
		head + `{"region":2.0` + reg[11:] + `]}`,
		head + `{"region":null` + reg[11:] + `]}`,
		head + reg[:len(reg)-14] + `"sum_label":null}]}`,
		head + reg[:len(reg)-14] + `"sum_label":1e400}]}`,
		head + reg[:len(reg)-1] + `,"x":0}]}`,
		`{"task":0,"count":3,"mean_conf":1e400,"pos_rate":null,"miscal":0,"cal_ratio":1,"ence":0,"regions":[]}`,
		`{"task":0,"count":3,"mean_conf":"0.5","pos_rate":null,"miscal":0,"cal_ratio":1,"ence":0,"regions":[]}`,
		`{"task":0,"count":3,"mean_conf":nul,"pos_rate":null,"miscal":0,"cal_ratio":1,"ence":0,"regions":[]}`,
		`{"task":0,"count":3,"mean_conf":0.5,"pos_rate":null,"miscal":0,"cal_ratio":1,"ence":0,"metrics":{},"regions":[]}`,
		`{"task":0,"count":3,"mean_conf":0.5,"pos_rate":null,"miscal":0,"cal_ratio":1,"ence":0,"regions":[],"partial":true}`,
		`{"task":0,"task":0,"count":3,"mean_conf":0.5,"pos_rate":null,"miscal":0,"cal_ratio":1,"ence":0,"regions":[]}`,
	}
	for _, body := range fallback {
		if isScanned([]byte(body)) {
			t.Errorf("scanner accepted %q", body)
		}
	}
}

func isScanned(body []byte) bool {
	_, ok := scanStatsSums(nil, body)
	return ok
}

// fuzzFloat reads a Float field for the writer half of FuzzStatsCodec
// so a JSON body can carry every value a reply holds: null as NaN, a
// literal past float64's range as the infinity it rounds to, and a
// string as strconv.ParseFloat reads it ("NaN", "-Inf", ...).
type fuzzFloat float64

func (f *fuzzFloat) UnmarshalJSON(b []byte) error {
	s := string(b)
	if s == "null" {
		*f = fuzzFloat(math.NaN())
		return nil
	}
	if u, err := strconv.Unquote(s); err == nil {
		s = u
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil && !errors.Is(err, strconv.ErrRange) {
		return err
	}
	*f = fuzzFloat(v)
	return nil
}

// fuzzStats is StatsResponse read through fuzzFloat.
type fuzzStats struct {
	Task         int                  `json:"task"`
	Count        int                  `json:"count"`
	MeanConf     fuzzFloat            `json:"mean_conf"`
	PosRate      fuzzFloat            `json:"pos_rate"`
	Miscal       fuzzFloat            `json:"miscal"`
	CalRatio     fuzzFloat            `json:"cal_ratio"`
	ENCE         fuzzFloat            `json:"ence"`
	Metrics      map[string]fuzzFloat `json:"metrics"`
	Regions      []fuzzRegion         `json:"regions"`
	Partial      bool                 `json:"partial"`
	FailedShards []string             `json:"failed_shards"`
}

type fuzzRegion struct {
	Region   int        `json:"region"`
	Count    int        `json:"count"`
	MeanConf fuzzFloat  `json:"mean_conf"`
	PosRate  fuzzFloat  `json:"pos_rate"`
	Miscal   fuzzFloat  `json:"miscal"`
	CalRatio fuzzFloat  `json:"cal_ratio"`
	SumScore *fuzzFloat `json:"sum_score"`
	SumLabel *fuzzFloat `json:"sum_label"`
}

// response converts the decoded body to the reply the writer sees.
func (in fuzzStats) response() StatsResponse {
	resp := StatsResponse{
		Task: in.Task, Count: in.Count,
		MeanConf: Float(in.MeanConf), PosRate: Float(in.PosRate), Miscal: Float(in.Miscal),
		CalRatio: Float(in.CalRatio), ENCE: Float(in.ENCE),
		Partial: in.Partial, FailedShards: in.FailedShards,
	}
	if in.Metrics != nil {
		resp.Metrics = make(map[string]Float, len(in.Metrics))
		for name, v := range in.Metrics {
			resp.Metrics[name] = Float(v)
		}
	}
	if in.Regions != nil {
		resp.Regions = make([]RegionStat, len(in.Regions))
	}
	for i, r := range in.Regions {
		resp.Regions[i] = RegionStat{
			Region: r.Region, Count: r.Count,
			MeanConf: Float(r.MeanConf), PosRate: Float(r.PosRate), Miscal: Float(r.Miscal), CalRatio: Float(r.CalRatio),
			SumScore: (*float64)(r.SumScore), SumLabel: (*float64)(r.SumLabel),
		}
	}
	return resp
}

// sameRegions reports whether two decoded sums lists are equal, the
// sums bit for bit.
func sameRegions(a, b []fairindex.RegionStat) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Region != y.Region || x.Count != y.Count ||
			math.Float64bits(x.SumScore) != math.Float64bits(y.SumScore) ||
			math.Float64bits(x.SumLabel) != math.Float64bits(y.SumLabel) ||
			x.MeanConf != 0 || x.PosRate != 0 || x.Miscal != 0 || x.CalRatio != 0 {
			return false
		}
	}
	return true
}

// FuzzStatsCodec is the stats codec's differential proof, both ways.
// Reading: for any body, DecodeStatsSums answers what json.Unmarshal
// and the sums check answer — the same regions, counts and sums bit
// for bit, or the same error text — and the scanner either agrees or
// falls back. Writing: for any reply a body decodes to (the Float
// fields through fuzzFloat), WriteStats writes WriteJSON's bytes, and a complete sums
// reply it writes reads back through the scanner.
func FuzzStatsCodec(f *testing.F) {
	const (
		head = `{"task":0,"count":12,"mean_conf":0.5,"pos_rate":0.25,"miscal":0.25,"cal_ratio":2,"ence":0.125,`
		reg  = `{"region":3,"count":5,"mean_conf":0.4,"pos_rate":0.2,"miscal":0.2,"cal_ratio":2,"sum_score":2,"sum_label":1}`
	)
	whole := head + `"regions":[` + reg + `,{"region":7,"count":7,"mean_conf":null,"pos_rate":null,"miscal":null,"cal_ratio":null,"sum_score":-0,"sum_label":0}]}` + "\n"
	for _, seed := range []string{
		whole,
		// NaN, ±Inf, −0, subnormals and the 1e-6/1e21 format boundaries,
		// as the wire carries them and as fuzzFloat reads them.
		head + `"regions":[{"region":1,"count":1,"mean_conf":null,"pos_rate":"+Inf","miscal":"-Inf","cal_ratio":1e400,"sum_score":4.9e-324,"sum_label":-2.2250738585072014e-308}]}`,
		`{"task":0,"count":1,"mean_conf":-0,"pos_rate":1e-6,"miscal":9.999999999999999e-7,"cal_ratio":1e21,"ence":999999999999999900000,"regions":[]}`,
		head + `"regions":[{"region":1,"count":1,"sum_score":1e20,"sum_label":1e-7}]}`,
		head + `"regions":[{"region":1,"count":1,"sum_score":1e400,"sum_label":1}]}`,
		head + `"regions":[{"region":1,"count":1,"sum_score":"NaN","sum_label":1}]}`,
		head + `"regions":[{"region":1,"count":1,"sum_score":1e-400,"sum_label":-1e-400}]}`,
		// partial and failed_shards.
		head + `"regions":[` + reg + `],"partial":true,"failed_shards":["s1","s\"2"]}`,
		head + `"regions":[` + reg + `],"failed_shards":[]}`,
		// Metric maps, escaped names among them.
		head + `"metrics":{"stat_parity":null,"ence":0.125,"atkinson":"-Inf","cal_ratio":1e400},"regions":[]}`,
		head + `"metrics":{"a\"b":1,"a\\b":2,"<x>":3,"a&b":4,"é":5,"\u2028":6,"tab\t":7,"\u007f":8,"":9},"regions":[]}`,
		head + `"metrics":{},"regions":[]}`,
		head + `"regions":null}`,
		// Reordered, duplicate and case-variant keys.
		`{"count":12,"task":0,"mean_conf":0.5,"pos_rate":0.25,"miscal":0.25,"cal_ratio":2,"ence":0.125,"regions":[` + reg + `]}`,
		head + `"regions":[{"count":5,"region":3,"mean_conf":0.4,"pos_rate":0.2,"miscal":0.2,"cal_ratio":2,"sum_label":1,"sum_score":2}]}`,
		head + `"regions":[` + reg + `],"regions":[]}`,
		head + `"regions":[{"region":3,"region":4,"count":5,"mean_conf":0.4,"pos_rate":0.2,"miscal":0.2,"cal_ratio":2,"sum_score":2,"sum_label":1}]}`,
		`{"TASK":0,"Count":12,"mean_conf":0.5,"pos_rate":0.25,"miscal":0.25,"cal_ratio":2,"ence":0.125,"Regions":[` + reg + `]}`,
		head + `"regions":[{"region":3,"count":5,"mean_conf":0.4,"pos_rate":0.2,"miscal":0.2,"cal_ratio":2,"Sum_Score":2,"sum_label":1}]}`,
		// Null sums, missing sums and integer overflow.
		head + `"regions":[{"region":3,"count":5,"mean_conf":0.4,"pos_rate":0.2,"miscal":0.2,"cal_ratio":2,"sum_score":null,"sum_label":1}]}`,
		head + `"regions":[{"region":3,"count":5}]}`,
		head + `"regions":[{"region":9223372036854775807,"count":-9223372036854775808,"sum_score":1,"sum_label":1}]}`,
		head + `"regions":[{"region":9223372036854775808,"count":5,"sum_score":1,"sum_label":1}]}`,
		`{"task":-9223372036854775809,"count":12,"regions":[]}`,
		head + `"regions":[{"region":3e0,"count":5,"sum_score":1,"sum_label":1}]}`,
		// Nulls where a value is expected, strings, unknown keys, and
		// text that is not a reply.
		head + `"regions":[null]}`,
		`{"task":null,"count":null,"mean_conf":null,"pos_rate":null,"miscal":null,"cal_ratio":null,"ence":null,"regions":[]}`,
		head + `"regions":[],"x":{"y":[1,2]}}`,
		head + `"regions":[]} x`,
		`{"error":"unknown task 9"}`, "not json", ``, `null`, `{}`, `[]`,
	} {
		f.Add([]byte(seed))
	}
	for i := 0; i < len(whole); i += 7 {
		f.Add([]byte(whole[:i]))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := decodeStatsSumsJSON(nil, body)
		if got, ok := scanStatsSums(nil, body); ok && (wantErr != nil || !sameRegions(got, want)) {
			t.Fatalf("body %q: scanner read %v, encoding/json %v (%v)", body, got, want, wantErr)
		}
		got, err := DecodeStatsSums(nil, body)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !sameRegions(got, want) {
			t.Fatalf("body %q: decoded %v (%v), encoding/json %v (%v)", body, got, err, want, wantErr)
		}

		var in fuzzStats
		if json.Unmarshal(body, &in) != nil {
			return
		}
		resp := in.response()
		gotW, wantW, gotWErr, wantWErr := writeBoth(resp)
		if !sameReply(gotW, wantW) || (gotWErr == nil) != (wantWErr == nil) {
			t.Fatalf("body %q: wrote %d %q (%v), WriteJSON %d %q (%v)",
				body, gotW.Code, gotW.Body, gotWErr, wantW.Code, wantW.Body, wantWErr)
		}
		if wantWErr != nil || len(resp.Metrics) > 0 || resp.Partial || len(resp.FailedShards) > 0 || resp.Regions == nil {
			return
		}
		var sent []fairindex.RegionStat
		for _, rs := range resp.Regions {
			if rs.SumScore == nil || rs.SumLabel == nil {
				return
			}
			sent = append(sent, fairindex.RegionStat{Region: rs.Region, Count: rs.Count, SumScore: *rs.SumScore, SumLabel: *rs.SumLabel})
		}
		if read, ok := scanStatsSums(nil, gotW.Body.Bytes()); !ok || !sameRegions(read, sent) {
			t.Fatalf("body %q: wrote %q, scanner read %v (%v), want %v", body, gotW.Body, read, ok, sent)
		}
	})
}

// TestStatsCodecAllocs pins what the stats path allocates once its
// pools are warm: nothing to write a 60-region reply with every metric
// and the raw sums but the Content-Type header, nothing to read a
// shard's sums reply into a slice with room. encoding/json back on the
// path costs hundreds per call.
func TestStatsCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	resp := statsReply(60, true)
	rec := httptest.NewRecorder()
	body := sumsBody(t, len(resp.Regions))
	dst := make([]fairindex.RegionStat, 0, len(resp.Regions))
	for _, tc := range []struct {
		name string
		max  float64
		run  func()
	}{
		// One: the Content-Type header value every reply sets.
		{"WriteStats", 1, func() {
			rec.Body.Reset()
			if err := WriteStats(rec, resp); err != nil {
				t.Fatal(err)
			}
		}},
		{"DecodeStatsSums", 0, func() {
			got, err := DecodeStatsSums(dst, body)
			if err != nil || len(got) != len(resp.Regions) {
				t.Fatalf("decoded %d regions (%v)", len(got), err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(100, tc.run); got > tc.max {
			t.Errorf("%s: %v allocs per call, want at most %v", tc.name, got, tc.max)
		}
	}
}

// TestRequestCodecAllocs pins what the scanned request bodies allocate
// once their pools are warm, however long they are: an append batch's
// records share one features list, one labels list and one id string
// besides the two record slices; a stats request allocates its region
// list, its rect, and its metric list and names. encoding/json back on
// the path costs several per record or region.
func TestRequestCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	appendBody := appendBody(t, 200)
	regions := make([]int, 60)
	for i := range regions {
		regions[i] = 3 * i
	}
	statsBody, err := json.Marshal(StatsRequest{Task: 1, Regions: regions, Metrics: []string{"ence", "stat_parity"}, Sums: true})
	if err != nil {
		t.Fatal(err)
	}
	rectBody := []byte(`{"task":0,"rect":{"min_lat":33.6,"min_lon":-118.7,"max_lat":34.4,"max_lon":-117.8}}`)
	for _, tc := range []struct {
		name string
		body []byte
		max  float64
		run  func(*http.Request) error
	}{
		{"ParseAppend", appendBody, 5, func(r *http.Request) error {
			_, _, err := ParseAppend(r, DefaultMaxBatch)
			return err
		}},
		{"ParseStats/regions", statsBody, 4, func(r *http.Request) error {
			_, err := ParseStats(r)
			return err
		}},
		{"ParseStats/rect", rectBody, 1, func(r *http.Request) error {
			_, err := ParseStats(r)
			return err
		}},
	} {
		br := bytes.NewReader(tc.body)
		r := httptest.NewRequest(http.MethodPost, "/", br)
		got := testing.AllocsPerRun(100, func() {
			br.Reset(tc.body)
			if err := tc.run(r); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.max {
			t.Errorf("%s: %v allocs per call, want at most %v", tc.name, got, tc.max)
		}
	}
}

// BenchmarkStatsCodec writes a 60-region reply with every metric and
// the raw sums, and reads a shard's 60-region sums reply as the router
// does, by the codec and by encoding/json alone.
func BenchmarkStatsCodec(b *testing.B) {
	resp := statsReply(60, true)
	rec := httptest.NewRecorder()
	body := sumsBody(b, len(resp.Regions))
	for _, bc := range []struct {
		name  string
		write func(http.ResponseWriter, StatsResponse) error
		read  func([]fairindex.RegionStat, []byte) ([]fairindex.RegionStat, error)
	}{
		{"codec", WriteStats, DecodeStatsSums},
		{"encoding_json", func(w http.ResponseWriter, resp StatsResponse) error {
			return WriteJSON(w, http.StatusOK, resp)
		}, decodeStatsSumsJSON},
	} {
		b.Run("write/"+bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec.Body.Reset()
				if err := bc.write(rec, resp); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("read/"+bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			dst := make([]fairindex.RegionStat, 0, len(resp.Regions))
			for i := 0; i < b.N; i++ {
				if _, err := bc.read(dst, body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
