package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"

	fairindex "fairindex"
)

// The /v1/stats codec. Window stats are the router's only fan-out, and
// their cost is the wire, not the fold: reflection-driven encoding/json
// spends ~10x the aggregation's time encoding a 60-region reply, and
// more again decoding each shard's sums reply in the router, and the
// request each shard decodes. So the reply is written, and a shard's
// sums reply and every POST request read, by hand here, with
// encoding/json kept as the definition of the format, as for
// locate_batch (batch.go):
//
//   - WriteStats appends the bytes WriteJSON would write: Float values
//     through Float's own rule (NaN and ±Inf as null), metric names in
//     sorted order, the raw sums only when present, the trailing
//     newline. A reply it does not cover — partial, a metric name
//     encoding/json would escape, a non-finite sum encoding/json
//     refuses — goes through WriteJSON;
//   - DecodeStatsSums reads a sums reply with the strict scanner: one
//     object with exactly the keys encoding/json writes for
//     NewStatsResponse(ws, true) — no metrics, partial or
//     failed_shards — in that order, each once and spelled exactly;
//     numbers in the JSON number grammar, converted exactly as
//     encoding/json's strconv calls convert them (number.go; a Float
//     value the reader drops is converted only where it could fall
//     outside float64's range); null only where a Float field takes
//     it. Any other input falls back to json.Unmarshal on the same
//     bytes, so every refusal keeps its text;
//   - ParseStats reads a POST request with the strict scanner
//     (scanStatsRequest) and falls back to encoding/json on the same
//     bytes, as ParseLocateBatch does.
//
// FuzzStatsCodec pins both reply directions against encoding/json,
// FuzzStatsRequestDecode the request, and TestStatsCodecAllocs and
// TestRequestCodecAllocs what each allocates.

// WriteStats writes a 200 /v1/stats reply, byte-identical to
// WriteJSON(w, http.StatusOK, resp).
func WriteStats(w http.ResponseWriter, resp StatsResponse) error {
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	b, ok := appendStats((*bp)[:0], resp)
	*bp = b
	if !ok {
		return WriteJSON(w, http.StatusOK, resp)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, err := w.Write(b)
	return err
}

// appendStats appends resp as encoding/json's Encoder writes it; ok is
// false for a reply WriteStats leaves to WriteJSON.
func appendStats(b []byte, resp StatsResponse) ([]byte, bool) {
	if resp.Partial || len(resp.FailedShards) > 0 {
		return b, false
	}
	b = append(b, `{"task":`...)
	b = strconv.AppendInt(b, int64(resp.Task), 10)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(resp.Count), 10)
	b = resp.MeanConf.appendJSON(append(b, `,"mean_conf":`...))
	b = resp.PosRate.appendJSON(append(b, `,"pos_rate":`...))
	b = resp.Miscal.appendJSON(append(b, `,"miscal":`...))
	b = resp.CalRatio.appendJSON(append(b, `,"cal_ratio":`...))
	b = resp.ENCE.appendJSON(append(b, `,"ence":`...))
	if len(resp.Metrics) > 0 {
		// Room for every registered metric on the stack; a longer
		// list still sorts, on the heap.
		var room [16]string
		names := room[:0]
		for name := range resp.Metrics {
			if !plainKey(name) {
				return b, false
			}
			names = append(names, name)
		}
		slices.Sort(names)
		b = append(b, `,"metrics":{`...)
		for i, name := range names {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(append(append(b, '"'), name...), `":`...)
			b = resp.Metrics[name].appendJSON(b)
		}
		b = append(b, '}')
	}
	b = append(b, `,"regions":`...)
	if resp.Regions == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, rs := range resp.Regions {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"region":`...)
			b = strconv.AppendInt(b, int64(rs.Region), 10)
			b = append(b, `,"count":`...)
			b = strconv.AppendInt(b, int64(rs.Count), 10)
			b = rs.MeanConf.appendJSON(append(b, `,"mean_conf":`...))
			b = rs.PosRate.appendJSON(append(b, `,"pos_rate":`...))
			b = rs.Miscal.appendJSON(append(b, `,"miscal":`...))
			b = rs.CalRatio.appendJSON(append(b, `,"cal_ratio":`...))
			var ok bool
			if b, ok = appendSum(b, `,"sum_score":`, rs.SumScore); !ok {
				return b, false
			}
			if b, ok = appendSum(b, `,"sum_label":`, rs.SumLabel); !ok {
				return b, false
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...), true
}

// appendSum appends an omitempty *float64 member; ok is false for a
// non-finite value, which encoding/json refuses to encode.
func appendSum(b []byte, key string, v *float64) ([]byte, bool) {
	if v == nil {
		return b, true
	}
	if f := Float(*v); !f.finite() {
		return b, false
	}
	return AppendFloat(append(b, key...), *v), true
}

// plainKey reports whether encoding/json writes name as a map key
// verbatim: printable ASCII other than '"', '\\' and the HTML
// characters its Encoder escapes.
func plainKey(name string) bool {
	for i := 0; i < len(name); i++ {
		switch c := name[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// The members of a stats request and of its rect.
var (
	statsRequestKeys = []string{"task", "regions", "rect", "metrics", "sums"}
	rectKeys         = []string{"min_lat", "min_lon", "max_lat", "max_lon"}
)

// intPool recycles the scratch a stats request's region list is read
// into before it is copied out at its final length.
var intPool = sync.Pool{New: func() any { return new([]int) }}

// scanStatsRequest is the strict scanner for a POST /v1/stats body:
// one object with members among task, regions, rect, metrics and sums,
// each at most once and in any order, and a rect with members among
// its four coordinates likewise; metric names of printable ASCII
// without escapes, and no null. ok is false for any other input.
func scanStatsRequest(data []byte) (StatsRequest, bool) {
	ip := intPool.Get().(*[]int)
	defer intPool.Put(ip)
	s := scanner{b: data}
	var (
		req     StatsRequest
		regions = (*ip)[:0]
		rect    [4]float64
		names   [16][]byte // room for every registered metric
		metrics = names[:0]
	)
	seen, ok := s.members(statsRequestKeys, func(i int) bool {
		var ok bool
		switch i {
		case 0:
			req.Task, ok = s.integer()
		case 1:
			regions, ok = s.ints(regions)
		case 2:
			_, ok = s.members(rectKeys, func(j int) bool {
				var ok bool
				rect[j], ok = s.float()
				return ok
			})
		case 3:
			ok = s.array(func() bool {
				name, ok := s.str()
				metrics = append(metrics, name)
				return ok
			})
		case 4:
			req.Sums, ok = s.boolean()
		}
		return ok
	})
	*ip = regions
	if !ok || !s.end() {
		return StatsRequest{}, false
	}
	// A list given, even empty, is non-nil, as encoding/json decodes it.
	if seen&(1<<1) != 0 {
		req.Regions = append(make([]int, 0, len(regions)), regions...)
	}
	if seen&(1<<2) != 0 {
		req.Rect = &Rect{MinLat: rect[0], MinLon: rect[1], MaxLat: rect[2], MaxLon: rect[3]}
	}
	if seen&(1<<3) != 0 {
		req.Metrics = make([]string, len(metrics))
		for i, name := range metrics {
			req.Metrics[i] = string(name)
		}
	}
	return req, true
}

// DecodeStatsSums appends to dst the regions of a shard's /v1/stats
// reply to a sums request — id, count and the raw sums, in reply order
// — and returns the extended slice. It refuses, with dst unchanged, a
// reply encoding/json cannot decode into a StatsResponse and one whose
// regions lack the raw sums.
func DecodeStatsSums(dst []fairindex.RegionStat, data []byte) ([]fairindex.RegionStat, error) {
	if out, ok := scanStatsSums(dst, data); ok {
		return out, nil
	}
	return decodeStatsSumsJSON(dst, data)
}

// decodeStatsSumsJSON is DecodeStatsSums by encoding/json alone: the
// definition the scanner agrees with, and its fallback.
func decodeStatsSumsJSON(dst []fairindex.RegionStat, data []byte) ([]fairindex.RegionStat, error) {
	var sub StatsResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		return dst, fmt.Errorf("malformed stats response: %v", err)
	}
	n := len(dst)
	for _, rs := range sub.Regions {
		if rs.SumScore == nil || rs.SumLabel == nil {
			return dst[:n], errors.New("backend response lacks raw sums (pre-sharding server version?)")
		}
		dst = append(dst, fairindex.RegionStat{Region: rs.Region, Count: rs.Count, SumScore: *rs.SumScore, SumLabel: *rs.SumLabel})
	}
	return dst, nil
}

// The members of a sums reply and of each of its regions, in the order
// encoding/json writes StatsResponse and RegionStat.
var (
	statsKeys  = []string{"task", "count", "mean_conf", "pos_rate", "miscal", "cal_ratio", "ence", "regions"}
	regionKeys = []string{"region", "count", "mean_conf", "pos_rate", "miscal", "cal_ratio", "sum_score", "sum_label"}
)

// scanStatsSums is the strict scanner behind DecodeStatsSums. ok is
// false for any input outside the subset described at the top of this
// file; dst's length is then meaningless.
func scanStatsSums(dst []fairindex.RegionStat, data []byte) ([]fairindex.RegionStat, bool) {
	s := scanner{b: data}
	var rs fairindex.RegionStat
	region := func(i int) bool {
		var ok bool
		switch i {
		case 0:
			rs.Region, ok = s.integer()
		case 1:
			rs.Count, ok = s.integer()
		case 6:
			rs.SumScore, ok = s.float()
		case 7:
			rs.SumLabel, ok = s.float()
		default:
			ok = s.wireFloat()
		}
		return ok
	}
	ok := s.object(statsKeys, func(i int) bool {
		switch {
		case i < 2:
			_, ok := s.integer()
			return ok
		case i < 7:
			return s.wireFloat()
		}
		return s.array(func() bool {
			ok := s.object(regionKeys, region)
			dst = append(dst, rs)
			return ok
		})
	})
	return dst, ok && s.end()
}

// object scans a JSON object whose members are exactly keys, in that
// order; value(i) consumes the value of keys[i].
func (s *scanner) object(keys []string, value func(i int) bool) bool {
	if !s.next('{') {
		return false
	}
	for i, key := range keys {
		if i > 0 && !s.next(',') {
			return false
		}
		if _, ok := s.key(key); !ok {
			return false
		}
		s.ws()
		if !value(i) {
			return false
		}
	}
	return s.next('}')
}

// wireFloat consumes a Float field's value, which the sums reader
// drops: null, which encoding/json decodes as a no-op, or a number it
// decodes without error. Only a value past float64's range is an
// error, and a number below 10^19·10^289 is inside it, so only a
// larger exponent needs the conversion's verdict.
func (s *scanner) wireFloat() bool {
	if len(s.b)-s.i >= 4 && string(s.b[s.i:s.i+4]) == "null" {
		s.i += 4
		return true
	}
	n, ok := s.number()
	if !ok {
		return false
	}
	if n.exp <= 308-maxMantDigits {
		return true
	}
	_, err := n.float()
	return err == nil
}
