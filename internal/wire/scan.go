package wire

import "io"

// The strict scanner the hand-written request and reply readers share
// (batch.go, stats.go, append.go), and the body reader that puts each
// in front of encoding/json: a body is read whole, scanned, and on any
// input outside the reader's subset replayed through decodeJSON, so
// every status and error text is encoding/json's own.

// decodeBody reads the whole body and scans it; on any input outside
// the scanner's subset it replays the bytes read — and the error the
// read ended with, such as the body-size cap — through decodeJSON.
func decodeBody[T any](body io.Reader, scan func([]byte) (T, bool)) (T, error) {
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	data, rerr := readAll((*bp)[:0], body)
	*bp = data
	if rerr == nil {
		if v, ok := scan(data); ok {
			return v, nil
		}
	}
	var v T
	err := decodeJSON(&replay{data: data, err: rerr}, &v)
	return v, err
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

// scanner walks a JSON text. Its steps accept a strict subset of JSON
// and report false on anything else: keys spelled exactly and without
// escapes, strings of printable ASCII without escapes, numbers in the
// JSON number grammar (number.go), no null.
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

// key consumes `"name":` for one of the given names and returns its
// index in names.
func (s *scanner) key(names ...string) (int, bool) {
	s.ws()
	for k, name := range names {
		j := s.i + len(name) + 2
		if j <= len(s.b) && s.b[s.i] == '"' && s.b[j-1] == '"' && string(s.b[s.i+1:j-1]) == name {
			s.i = j
			return k, s.next(':')
		}
	}
	return -1, false
}

// members scans a JSON object whose members are among keys, each at
// most once, in any order; value(i) consumes the value of keys[i]. It
// returns the set of keys seen, bit i for keys[i].
func (s *scanner) members(keys []string, value func(i int) bool) (uint, bool) {
	var seen uint
	if !s.next('{') {
		return 0, false
	}
	if s.next('}') {
		return 0, true
	}
	for {
		i, ok := s.key(keys...)
		if !ok || seen&(1<<i) != 0 {
			return seen, false
		}
		seen |= 1 << i
		s.ws()
		if !value(i) {
			return seen, false
		}
		if s.next('}') {
			return seen, true
		}
		if !s.next(',') {
			return seen, false
		}
	}
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

// ints appends a JSON array of integers to dst.
func (s *scanner) ints(dst []int) ([]int, bool) {
	ok := s.array(func() bool {
		n, ok := s.integer()
		dst = append(dst, n)
		return ok
	})
	return dst, ok
}

// integer consumes a number as encoding/json decodes an int field.
func (s *scanner) integer() (int, bool) {
	n, ok := s.number()
	if !ok {
		return 0, false
	}
	return n.int()
}

// float consumes a number as encoding/json decodes a float64 field; a
// range error is its "cannot unmarshal" error, so it falls back.
func (s *scanner) float() (float64, bool) {
	n, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := n.float()
	return f, err == nil
}

// str consumes a JSON string of printable ASCII without escapes and
// returns its contents, which are then its decoded value.
func (s *scanner) str() ([]byte, bool) {
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	for j := s.i + 1; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := s.b[s.i+1 : j]
			s.i = j + 1
			return v, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// boolean consumes true or false.
func (s *scanner) boolean() (bool, bool) {
	for _, lit := range [2]string{"false", "true"} {
		if len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit {
			s.i += len(lit)
			return lit == "true", true
		}
	}
	return false, false
}
