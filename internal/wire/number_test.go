package wire

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// FuzzParseNumber is the number scanner's differential proof: it
// accepts exactly the JSON number grammar, and for every literal it
// accepts, its float64 equals strconv.ParseFloat's bit for bit with the
// same error, and its int is strconv.ParseInt's wherever that call
// succeeds and refused wherever it fails.
func FuzzParseNumber(f *testing.F) {
	for _, seed := range []string{
		"0", "-0", "0.0", "-0.0", "0e0", "-0e-999", "0e99999",
		// Subnormals, the smallest one, and what rounds to it or to 0.
		"4.9406564584124654e-324", "5e-324", "2.4703282292062327e-324",
		"2.4703282292062328e-324", "1e-324", "2.2250738585072011e-308",
		"2.2250738585072014e-308", "1e-310",
		// The top of the range, and past it.
		"1.7976931348623157e308", "1.7976931348623158e308",
		"1.7976931348623159e308", "1e308", "1e309", "-1e309", "1e99999",
		// 2^53 - 1, 2^53, 2^53 + 1 (halfway between two floats), 2^53 + 2.
		"9007199254740991", "9007199254740992", "9007199254740993",
		"9007199254740994", "9007199254740993.0", "9.007199254740993e15",
		// 1 + 2^-53, exactly halfway, and just either side of it.
		"1.00000000000000011102230246251565404236316680908203125",
		"1.00000000000000011102230246251565404236316680908203124",
		"1.00000000000000011102230246251565404236316680908203126",
		// Mantissas of 17 to 20 digits, and int64's edges.
		"12345678901234567", "123456789012345678", "1234567890123456789",
		"12345678901234567890", "0.12345678901234567890e3",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808",
		"-9223372036854775809", "18446744073709551615", "18446744073709551616",
		"1e22", "1e23", "8.98846567431158e307", "7.2057594037927933e16",
		// Coordinates as the load generator writes them.
		"34.05223456789012", "-118.24368432571237", "33.600000000000001",
		"-117.80000000000001", "34.4", "-118.7",
		// Outside the grammar.
		"", "-", "+1", "01", "1.", ".5", "1e", "1e+", "0x10", "1_000",
		"inf", "NaN", " 1", "1 ", "1.5e3x",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, lit string) {
		s := scanner{b: []byte(lit)}
		n, ok := s.number()
		accepted := ok && s.i == len(lit)
		// A lone JSON number starts with '-' or a digit and ends with a
		// digit; json.Valid then decides the rest of the grammar.
		isNumber := len(lit) > 0 && (lit[0] == '-' || isDigit(lit[0])) && isDigit(lit[len(lit)-1]) &&
			json.Valid([]byte(lit))
		if accepted != isNumber {
			t.Fatalf("%q: scanner accepts %v, JSON grammar %v", lit, accepted, isNumber)
		}
		if !accepted {
			return
		}
		got, gotErr := n.float()
		want, wantErr := strconv.ParseFloat(lit, 64)
		if math.Float64bits(got) != math.Float64bits(want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%q: got (%v, %v), ParseFloat (%v, %v)", lit, got, gotErr, want, wantErr)
		}
		gotInt, intOK := n.int()
		wantInt, err := strconv.ParseInt(lit, 10, 64)
		if intOK != (err == nil && int64(int(wantInt)) == wantInt) || intOK && int64(gotInt) != wantInt {
			t.Fatalf("%q: int (%d, %v), ParseInt (%d, %v)", lit, gotInt, intOK, wantInt, err)
		}
	})
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// TestParseNumberSteps checks which conversion step takes a literal:
// the reach of the fast paths, where the fuzz target above proves only
// that the answers agree.
func TestParseNumberSteps(t *testing.T) {
	for _, tc := range []struct {
		lit          string
		man          uint64
		exp          int
		trunc, plain bool
		step         string
	}{
		{"34.05", 3405, -2, false, false, "clinger"},
		{"-118.2436843257124", 1182436843257124, -13, false, false, "clinger"},
		{"0.001", 1, -3, false, false, "clinger"},
		{"12e3", 12, 3, false, false, "clinger"},
		{"42", 42, 0, false, true, "clinger"},
		{"-118.24368432571237", 11824368432571237, -14, false, false, "eisel-lemire"}, // past 2^53
		{"1e-23", 1, -23, false, false, "eisel-lemire"},
		{"1234567890123456789", 1234567890123456789, 0, false, true, "eisel-lemire"},
		{"12345678901234567890", 1234567890123456789, 1, false, true, "eisel-lemire"}, // a zero dropped
		{"9007199254740993", 9007199254740993, 0, false, true, "strconv"},             // halfway
		{"1e23", 1, 23, false, false, "strconv"},                                      // halfway, as far as 128 bits show
		{"12345678901234567891", 1234567890123456789, 1, true, true, "strconv"},
		{"1e309", 1, 309, false, false, "strconv"},
		{"5e-324", 5, -324, false, false, "strconv"}, // subnormal
	} {
		s := scanner{b: []byte(tc.lit)}
		n, ok := s.number()
		if !ok || n.man != tc.man || n.exp != tc.exp || n.trunc != tc.trunc || n.plain != tc.plain {
			t.Errorf("%q: read %+v (%v)", tc.lit, n, ok)
			continue
		}
		step := "strconv"
		if !n.trunc {
			if _, ok := clinger(n.man, n.exp, n.neg); ok {
				step = "clinger"
			} else if _, ok := eiselLemire(n.man, n.exp, n.neg); ok {
				step = "eisel-lemire"
			}
		}
		if step != tc.step {
			t.Errorf("%q: converted by %s, want %s", tc.lit, step, tc.step)
		}
	}
}

// BenchmarkParseNumber converts a coordinate literal by the scanner and
// by the strconv call it replaces.
func BenchmarkParseNumber(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	lits := make([][]byte, 1024)
	for i := range lits {
		lits[i] = strconv.AppendFloat(nil, -118.7+0.9*rng.Float64(), 'g', -1, 64)
	}
	b.Run("scanner", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := scanner{b: lits[i%len(lits)]}
			if _, ok := s.float(); !ok {
				b.Fatal(string(s.b))
			}
		}
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := strconv.ParseFloat(string(lits[i%len(lits)]), 64); err != nil {
				b.Fatal(err)
			}
		}
	})
}
