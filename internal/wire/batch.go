package wire

import (
	"errors"
	"fmt"
	"io"
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
//   - the scanner accepts a strict subset of JSON — one object with
//     exactly the expected keys, each once, spelled exactly, arrays of
//     numbers in the JSON number grammar, and whitespace — and parse
//     each number with the same strconv call encoding/json makes, so
//     the values are bit-identical;
//   - any other input (case-variant or escaped keys, duplicate keys,
//     null, out-of-range numbers, trailing data, read errors, ...)
//     falls back to encoding/json on the same bytes, so every status
//     and error text is exactly what encoding/json alone produces;
//   - the reply writer, and AppendFloat which the wire float types
//     share, write the bytes encoding/json would write.
//
// FuzzLocateBatchDecode and the appender tests in wire_test.go pin the
// agreement.

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
	req, err := decodeLocateBatch(r.Body)
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

// decodeLocateBatch reads the whole body, scans it, and on any input
// outside the scanner's subset replays the bytes read — and the error
// the read ended with, such as the body-size cap — through decodeJSON.
func decodeLocateBatch(body io.Reader) (LocateBatchRequest, error) {
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	data, rerr := readAll((*bp)[:0], body)
	*bp = data
	if rerr == nil {
		if req, ok := scanLocateBatch(data); ok {
			return req, nil
		}
	}
	var req LocateBatchRequest
	err := decodeJSON(&replay{data: data, err: rerr}, &req)
	return req, err
}

// readAll is io.ReadAll appending to dst.
func readAll(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// replay re-serves a body readAll consumed: its bytes, then the error
// the read ended with (io.EOF after a clean read). encoding/json scans
// every byte it holds before it looks at a read error, so the decoder
// answers exactly as it would have reading the body itself.
type replay struct {
	data []byte
	err  error
}

func (r *replay) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		if r.err == nil {
			return 0, io.EOF
		}
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// scanLocateBatch is the strict scanner for {"lats":[...],"lons":[...]}
// (keys in either order). ok is false for any input outside the subset
// described at the top of this file.
func scanLocateBatch(data []byte) (LocateBatchRequest, bool) {
	sp := floatPool.Get().(*[]float64)
	defer floatPool.Put(sp)
	s := scanner{b: data}
	vals := (*sp)[:0]
	var split int // vals[:split] holds the first key's array
	var first string
	if !s.next('{') {
		return LocateBatchRequest{}, false
	}
	for k := 0; k < 2; k++ {
		if k == 1 && !s.next(',') {
			return LocateBatchRequest{}, false
		}
		key, ok := s.key("lats", "lons")
		if !ok || key == first {
			return LocateBatchRequest{}, false
		}
		if vals, ok = s.floats(vals); !ok {
			return LocateBatchRequest{}, false
		}
		if k == 0 {
			first, split = key, len(vals)
		}
	}
	*sp = vals
	if !s.next('}') || !s.end() {
		return LocateBatchRequest{}, false
	}
	a := append(make([]float64, 0, split), vals[:split]...)
	b := append(make([]float64, 0, len(vals)-split), vals[split:]...)
	if first == "lats" {
		return LocateBatchRequest{Lats: a, Lons: b}, true
	}
	return LocateBatchRequest{Lats: b, Lons: a}, true
}

// scanner walks a JSON text for the strict scanners of batch.go and
// stats.go.
type scanner struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next consumes c after optional whitespace.
func (s *scanner) next(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace remains.
func (s *scanner) end() bool {
	s.ws()
	return s.i == len(s.b)
}

// key consumes `"name":` for one of the given names, spelled exactly
// and without escapes, and returns the name.
func (s *scanner) key(names ...string) (string, bool) {
	s.ws()
	for _, name := range names {
		j := s.i + len(name) + 2
		if j <= len(s.b) && s.b[s.i] == '"' && s.b[j-1] == '"' && string(s.b[s.i+1:j-1]) == name {
			s.i = j
			return name, s.next(':')
		}
	}
	return "", false
}

// array scans a JSON array whose elements elem consumes.
func (s *scanner) array(elem func() bool) bool {
	if !s.next('[') {
		return false
	}
	if s.next(']') {
		return true
	}
	for {
		s.ws()
		if !elem() {
			return false
		}
		if s.next(']') {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
}

// floats appends a JSON array of numbers to dst.
func (s *scanner) floats(dst []float64) ([]float64, bool) {
	ok := s.array(func() bool {
		f, ok := s.float()
		dst = append(dst, f)
		return ok
	})
	return dst, ok
}

// number consumes a literal in the JSON number grammar and returns
// its bytes.
func (s *scanner) number() ([]byte, bool) {
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		if j := digits(b, i+1); j > i+1 {
			i = j
		} else {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := digits(b, i); j > i {
			i = j
		} else {
			return nil, false
		}
	}
	lit := b[s.i:i]
	s.i = i
	return lit, true
}

// digits returns the index past the run of decimal digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
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
