package wire

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// The /v1/locate_batch codec. A batch is the one request whose cost is
// dominated by the wire rather than the index: reflection-driven
// encoding/json spends ~100x the lookup kernel's time on a 1000-point
// body. So the batch request is decoded and the batch reply encoded by
// hand here, with encoding/json kept as the definition of the format:
//
//   - the scanner (scan.go) accepts a strict subset of JSON — one
//     object with exactly the expected keys, each once, spelled
//     exactly, arrays of numbers in the JSON number grammar, and
//     whitespace — and reads each number once, in the pass that checks
//     its grammar, converting it exactly (number.go): Clinger's fast
//     path where mantissa and power of ten are both exact float64s,
//     else Eisel–Lemire, else strconv.ParseFloat on the same bytes — the
//     call encoding/json makes. Each step rounds correctly, so the
//     values are bit-identical to encoding/json's;
//   - any other input (case-variant or escaped keys, duplicate keys,
//     null, out-of-range numbers, trailing data, read errors, ...)
//     falls back to encoding/json on the same bytes, so every status
//     and error text is exactly what encoding/json alone produces;
//   - the reply writer, and AppendFloat which the wire float types
//     share, write the bytes encoding/json would write.
//
// FuzzLocateBatchDecode, FuzzParseNumber and the appender tests in
// wire_test.go pin the agreement.

// bufPool recycles the byte buffers batch bodies are read into and
// replies are appended to. sync.Pool drops idle buffers across two
// garbage collections, so an idle server holds none.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// floatPool recycles the scratch the request scanner parses
// coordinates into before copying them out at their final length.
var floatPool = sync.Pool{New: func() any { return new([]float64) }}

// ParseLocateBatch reads a /v1/locate_batch body and checks its shape:
// equally long, non-empty coordinate lists of at most limit points. An
// error comes with its status: 400, or 413 past the limit.
func ParseLocateBatch(r *http.Request, limit int) (LocateBatchRequest, int, error) {
	req, err := decodeBody(r.Body, scanLocateBatch)
	if err != nil {
		return req, http.StatusBadRequest, err
	}
	status, err := checkLocateBatch(req, limit)
	return req, status, err
}

// checkLocateBatch is ParseLocateBatch's shape check.
func checkLocateBatch(req LocateBatchRequest, limit int) (int, error) {
	switch {
	case len(req.Lats) != len(req.Lons):
		return http.StatusBadRequest, fmt.Errorf("%d lats vs %d lons", len(req.Lats), len(req.Lons))
	case len(req.Lats) == 0:
		return http.StatusBadRequest, errors.New("empty batch")
	case len(req.Lats) > limit:
		return http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d points exceeds limit %d", len(req.Lats), limit)
	}
	return 0, nil
}

// batchKeys are the members of a /v1/locate_batch request.
var batchKeys = []string{"lats", "lons"}

// scanLocateBatch is the strict scanner for {"lats":[...],"lons":[...]}
// (keys in either order, both given). ok is false for any input
// outside the subset described at the top of this file.
func scanLocateBatch(data []byte) (LocateBatchRequest, bool) {
	sp := floatPool.Get().(*[]float64)
	defer floatPool.Put(sp)
	s := scanner{b: data}
	vals := (*sp)[:0]
	first, split := -1, 0 // vals[:split] holds the array of batchKeys[first]
	seen, ok := s.members(batchKeys, func(i int) bool {
		var ok bool
		vals, ok = s.floats(vals)
		if first < 0 {
			first, split = i, len(vals)
		}
		return ok
	})
	*sp = vals
	if !ok || seen != 1<<len(batchKeys)-1 || !s.end() {
		return LocateBatchRequest{}, false
	}
	a := append(make([]float64, 0, split), vals[:split]...)
	b := append(make([]float64, 0, len(vals)-split), vals[split:]...)
	if first == 0 {
		return LocateBatchRequest{Lats: a, Lons: b}, true
	}
	return LocateBatchRequest{Lats: b, Lons: a}, true
}

// AppendFloat appends a finite f exactly as encoding/json encodes a
// float64: the shortest decimal that round-trips, in 'f' form unless
// |f| < 1e-6 or |f| >= 1e21, with an exponent's leading zero dropped
// (1e-07 becomes 1e-7).
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// WriteLocateBatch writes a 200 /v1/locate_batch reply, byte-identical
// to WriteJSON(w, http.StatusOK, resp). The plain reply — every point
// resolved, so no invalid count or error — is appended by hand; any
// other goes through WriteJSON.
func WriteLocateBatch(w http.ResponseWriter, resp LocateBatchResponse) error {
	if resp.Regions == nil || resp.Invalid != 0 || resp.Error != "" {
		return WriteJSON(w, http.StatusOK, resp)
	}
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	b := append((*bp)[:0], `{"regions":[`...)
	for i, region := range resp.Regions {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(region), 10)
	}
	b = append(b, "]}\n"...)
	*bp = b
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, err := w.Write(b)
	return err
}
