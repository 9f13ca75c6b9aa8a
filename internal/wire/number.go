package wire

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// Number conversion for the strict scanners. Each JSON number is read
// once: the pass that checks its grammar also accumulates its first 19
// significant digits into a uint64 mantissa and a decimal exponent, the
// same (mantissa, exponent, truncated) triple strconv.ParseFloat reads.
// The value is then converted exactly, by the first step that applies:
//
//   - Clinger's fast path: a mantissa below 2^53 and a power of ten of
//     at most 22 are both exact float64s, so one IEEE multiply or divide
//     rounds their product or quotient correctly;
//   - Eisel–Lemire (Lemire, "Number Parsing at a Gigabyte per Second",
//     arXiv:2101.11408): the mantissa times a 128-bit truncation of the
//     power of ten brackets the exact product tightly enough to round
//     it, and the algorithm declines where it cannot tell (near a
//     halfway case) or where the result leaves the normal range;
//   - strconv.ParseFloat on the same bytes, whenever a nonzero digit
//     past the 19th was dropped or either step above declined.
//
// Every step returns the correctly rounded float64, so the value is
// ParseFloat's bit for bit, and every error (a range error) is
// ParseFloat's own. FuzzParseNumber holds the two to each other.

// number is one JSON number literal as the scanner read it.
type number struct {
	lit   []byte // the literal's bytes
	man   uint64 // its first 19 significant digits
	exp   int    // value = man·10^exp, unless trunc
	neg   bool
	trunc bool // a nonzero digit past the 19th was dropped
	plain bool // no fraction and no exponent
}

// maxMantDigits is how many decimal digits always fit a uint64.
const maxMantDigits = 19

// number consumes a literal in the JSON number grammar.
func (s *scanner) number() (number, bool) {
	b, i := s.b, s.i
	var n number
	if i < len(b) && b[i] == '-' {
		n.neg = true
		i++
	}
	// nd counts significant digits (past any leading zeros), nm those
	// in man, and dp is the decimal point's place after the first
	// significant digit, all as strconv's reader counts them.
	var nd, nm, dp int
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			nd++
			if nm < maxMantDigits {
				n.man = n.man*10 + uint64(b[i]-'0')
				nm++
			} else if b[i] != '0' {
				n.trunc = true
			}
		}
	default:
		return n, false
	}
	dp = nd
	n.plain = true
	if i < len(b) && b[i] == '.' {
		i++
		j := i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			// Eight digits at a time while they all fit the mantissa.
			for nd > 0 && nm <= maxMantDigits-8 && len(b)-i >= 8 {
				v, ok := eightDigits(b[i:])
				if !ok {
					break
				}
				n.man = n.man*1e8 + v
				nd += 8
				nm += 8
				i += 8
			}
			if i == len(b) || b[i] < '0' || b[i] > '9' {
				break
			}
			switch {
			case nd == 0 && b[i] == '0':
				dp--
			case nm < maxMantDigits:
				n.man = n.man*10 + uint64(b[i]-'0')
				nd++
				nm++
			default:
				nd++
				if b[i] != '0' {
					n.trunc = true
				}
			}
		}
		if i == j {
			return n, false
		}
		n.plain = false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		sign := 1
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			if b[i] == '-' {
				sign = -1
			}
			i++
		}
		j := i
		e := 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 10000 { // far past every finite float64 either way
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == j {
			return n, false
		}
		dp += sign * e
		n.plain = false
	}
	if n.man != 0 {
		n.exp = dp - nm
	}
	n.lit = b[s.i:i]
	s.i = i
	return n, true
}

// eightDigits returns the value of b[:8] if all eight bytes are
// decimal digits: the digit test and the conversion each run on all
// eight bytes at once, as one little-endian word.
func eightDigits(b []byte) (uint64, bool) {
	w := binary.LittleEndian.Uint64(b)
	if w&0xf0f0f0f0f0f0f0f0|(w+0x0606060606060606)&0xf0f0f0f0f0f0f0f0>>4 != 0x3333333333333333 {
		return 0, false
	}
	w &= 0x0f0f0f0f0f0f0f0f
	w = w * (10<<8 + 1) >> 8                           // pairs of digits
	w = (w & 0x00ff00ff00ff00ff) * (100<<16 + 1) >> 16 // fours
	return (w & 0x0000ffff0000ffff) * (10000<<32 + 1) >> 32, true
}

// float returns the literal's value and error exactly as
// strconv.ParseFloat(string(n.lit), 64) does.
func (n *number) float() (float64, error) {
	if !n.trunc {
		if f, ok := clinger(n.man, n.exp, n.neg); ok {
			return f, nil
		}
		if f, ok := eiselLemire(n.man, n.exp, n.neg); ok {
			return f, nil
		}
	}
	return strconv.ParseFloat(string(n.lit), 64)
}

// int returns the literal's value under strconv.ParseInt(lit, 10, 64)'s
// rule — an integer literal inside int64's range — and ok false for any
// literal that call refuses, or whose value an int cannot hold.
func (n *number) int() (int, bool) {
	limit := uint64(math.MaxInt64)
	if n.neg {
		limit++
	}
	// exp is 0 for a plain literal of at most 19 digits, and positive
	// past that.
	if !n.plain || n.exp != 0 || n.man > limit {
		return 0, false
	}
	v := int64(n.man)
	if n.neg {
		v = -v
	}
	return int(v), int64(int(v)) == v
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// clinger converts man·10^exp by one correctly rounded operation on
// two exact operands, where both are exact float64s.
func clinger(man uint64, exp int, neg bool) (float64, bool) {
	if man>>53 != 0 || exp < -22 || exp > 22 {
		return 0, false
	}
	f := float64(man)
	if neg {
		f = -f
	}
	if exp < 0 {
		return f / pow10[-exp], true
	}
	return f * pow10[exp], true
}

// The powers of ten Eisel–Lemire multiplies by: 10^q for q in
// [minPow10, maxPow10], each as its leading 128 bits (hi, then lo),
// truncated. Below minPow10 every man·10^q of a uint64 man rounds to
// zero, and above maxPow10 overflows.
const (
	minPow10 = -348
	maxPow10 = 347
)

var pow10Mant = powersOfTen()

// powersOfTen computes the table exactly: 10^q, or 2^k/10^-q for k
// putting the quotient in [2^127, 2^128), cut to 128 bits by shifting
// off, or flooring away, everything below.
func powersOfTen() [maxPow10 - minPow10 + 1][2]uint64 {
	var t [maxPow10 - minPow10 + 1][2]uint64
	one, ten := big.NewInt(1), big.NewInt(10)
	p := big.NewInt(1) // 10^|q|
	top, v := new(big.Int), new(big.Int)
	split := func(q int, v *big.Int) {
		lo := new(big.Int).And(v, new(big.Int).SetUint64(math.MaxUint64))
		t[q-minPow10] = [2]uint64{new(big.Int).Rsh(v, 64).Uint64(), lo.Uint64()}
	}
	for q := 0; q <= max(maxPow10, -minPow10); q++ {
		if q > 0 {
			p.Mul(p, ten)
		}
		n := p.BitLen()
		if q <= maxPow10 {
			if n > 128 {
				v.Rsh(p, uint(n-128))
			} else {
				v.Lsh(p, uint(128-n))
			}
			split(q, v)
		}
		if q > 0 && -q >= minPow10 {
			top.Lsh(one, uint(127+n))
			split(-q, v.Quo(top, p))
		}
	}
	return t
}

// eiselLemire converts man·10^exp10, man > 0 (clinger takes zero), to
// the nearest float64 when the 128-bit product decides the rounding and
// the result is a normal number; ok is false otherwise.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if exp10 < minPow10 || exp10 > maxPow10 {
		return 0, false
	}
	// Normalize man to bit 63, and estimate the binary exponent with
	// floor(exp10·log2(10)) = 217706·exp10 >> 16, which holds over
	// the table's range; the biased exponent is fixed up once the product's
	// top bit is known.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	e2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)
	pw := &pow10Mant[exp10-minPow10]
	hi, lo := bits.Mul64(man, pw[0])
	// The product's low 9 bits below the 54 kept are all ones and the
	// truncated half of the power could carry into them: widen to the
	// power's low 64 bits, and decline if that still cannot tell.
	if hi&0x1ff == 0x1ff && lo+man < man {
		yhi, ylo := bits.Mul64(man, pw[1])
		mhi, mlo := hi, lo+yhi
		if mlo < lo {
			mhi++
		}
		if mhi&0x1ff == 0x1ff && mlo+1 == 0 && ylo+man < man {
			return 0, false
		}
		hi, lo = mhi, mlo
	}
	// Keep 54 bits: 53 and a rounding bit.
	msb := hi >> 63
	m := hi >> (msb + 9)
	e2 -= 1 ^ msb
	// Exactly halfway between two floats, as far as the product
	// shows: the true value may sit on either side.
	if lo == 0 && hi&0x1ff == 0 && m&3 == 1 {
		return 0, false
	}
	// Round half to even, renormalizing a carry out of bit 53.
	m += m & 1
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		e2++
	}
	// A biased exponent of 0 (subnormal, or wrapped below) or 0x7ff
	// and up (infinite) is out of this algorithm's range.
	if e2-1 >= 0x7ff-1 {
		return 0, false
	}
	f := e2<<52 | m&(1<<52-1)
	if neg {
		f |= 1 << 63
	}
	return math.Float64frombits(f), true
}
