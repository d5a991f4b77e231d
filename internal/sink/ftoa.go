package sink

import (
	"math"
	"math/bits"
	"strconv"
)

// appendFloat appends v to b byte for byte as strconv.AppendFloat(b, v,
// 'g', -1, 64) does: the shortest decimal that reads back as v (the one
// closest to v among those, ties to an even last digit), in %e form when
// its decimal exponent is below -4 or at least 6 and in %f form otherwise.
//
// Normal floats go through Schubfach (Giulietti, "The Schubfach way to
// render doubles", 2020): one pow10Table lookup, three 64×128-bit
// multiplies and integer compares, no floating-point operation and no
// loop over candidate digits. Zero, subnormals, infinities and NaN are
// rare in telemetry (the Table 1 grid emits none) and left to strconv.
func appendFloat(b []byte, v float64) []byte {
	u := math.Float64bits(v)
	be := int(u>>52) & 0x7ff // biased exponent
	if be == 0 || be == 0x7ff {
		return strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	if u>>63 != 0 {
		b = append(b, '-')
	}
	m := u & (1<<52 - 1)
	c, q := m|1<<52, be-1075 // v = ±c·2^q
	var d uint64
	var k int
	if q <= 0 && bits.TrailingZeros64(c) >= -q {
		// An integer below 2^53: its own digits are the shortest.
		d = c >> -q
	} else {
		d, k = schubfach(c, q, m == 0 && be > 1)
	}
	return appendDecimal(b, d, k)
}

// schubfach returns the shortest decimal d·10^k in the rounding interval
// of c·2^q, the closest to c·2^q among those (ties to even d). irregular
// marks a power of two above the smallest normal, whose lower neighbour is
// half an ulp closer than its upper one. The names follow the paper's
// Figure 7: cb = 4c, the bar values are quadrupled, and an interval bound
// counts as inside when c is even (round-half-even reads it back as v).
func schubfach(c uint64, q int, irregular bool) (d uint64, k int) {
	out := c & 1
	cb := c << 2
	cbr := cb + 2
	cbl := cb - 2
	if irregular {
		cbl = cb - 1
		k = flog10ThreeQuartersPow2(q)
	} else {
		k = flog10Pow2(q)
	}
	h := q + flog2Pow10(-k) + 2
	g := &pow10Table[-k-pow10Min]
	vb := rop(g, cb<<h)
	vbl := rop(g, cbl<<h)
	vbr := rop(g, cbr<<h)

	// s has 16 or 17 digits for every normal c, so one digit fewer —
	// s rounded down (sp10) or up (tp10) to a multiple of ten — is
	// always worth trying first.
	s := vb >> 2
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	if upin != wpin {
		if upin {
			return sp10, k
		}
		return tp10, k
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	// Both s and t are in the interval: take the closer to v.
	cmp := int64(vb - (s+t)<<1)
	if cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// rop returns g·cp / 2^127 rounded to odd (the paper's §9.9): the floor,
// with its low bit set when any of the 63 bits below the binary point is.
// g is a pow10Table entry, cp < 2^60. The product's low 64 bits are not
// computed: g exceeds the true power of ten by less than 1, which adds
// less than cp to g·cp, so a product that is exact for the true power (an
// integer, or a tie between two candidates) reads as exact.
func rop(g *[2]uint64, cp uint64) uint64 {
	x1, _ := bits.Mul64(g[1], cp)
	y1, y0 := bits.Mul64(g[0], cp)
	z, carry := bits.Add64(y0, x1, 0)
	_, sticky := bits.Add64(z<<1, ^uint64(0), 0)
	return (y1+carry)<<1 | z>>63 | sticky
}

// flog10Pow2 returns ⌊log10 2^q⌋, flog10ThreeQuartersPow2 ⌊log10 (¾·2^q)⌋
// and flog2Pow10 ⌊log2 10^e⌋, in fixed point; TestSchubfachLogs checks
// them over every exponent a float64 reaches.
func flog10Pow2(q int) int { return q * 661971961083 >> 41 }

func flog10ThreeQuartersPow2(q int) int { return (q*661971961083 - 274743187321) >> 41 }

func flog2Pow10(e int) int { return e * 913124641741 >> 38 }

// digitPairs holds "00" through "99" back to back.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendDecimal appends d·10^k, d > 0, in strconv's shortest 'g' layout,
// trailing zeros of d dropped.
func appendDecimal(b []byte, d uint64, k int) []byte {
	var buf [20]byte
	i := len(buf)
	for d >= 1e8 {
		i -= 8
		put8((*[8]byte)(buf[i:]), uint32(d%1e8))
		d /= 1e8
	}
	x := uint32(d)
	for x >= 100 {
		i -= 2
		r := x % 100
		buf[i], buf[i+1] = digitPairs[2*r], digitPairs[2*r+1]
		x /= 100
	}
	if x >= 10 {
		i -= 2
		buf[i], buf[i+1] = digitPairs[2*x], digitPairs[2*x+1]
	} else {
		i--
		buf[i] = byte('0' + x)
	}
	j := len(buf)
	for buf[j-1] == '0' {
		j--
		k++
	}
	digs := buf[i:j]
	nd := len(digs)
	dp := nd + k // digits before the decimal point
	switch exp := dp - 1; {
	case exp < -4 || exp >= 6:
		b = append(b, digs[0])
		if nd > 1 {
			b = append(b, '.')
			b = append(b, digs[1:]...)
		}
		b = append(b, 'e', '+')
		if exp < 0 {
			b[len(b)-1] = '-'
			exp = -exp
		}
		if exp >= 100 {
			b = append(b, byte('0'+exp/100))
			exp %= 100
		}
		return append(b, digitPairs[2*exp], digitPairs[2*exp+1])
	case dp <= 0:
		b = append(b, "0.0000"[:2-dp]...)
		return append(b, digs...)
	case dp < nd:
		b = append(b, digs[:dp]...)
		b = append(b, '.')
		return append(b, digs[dp:]...)
	default:
		b = append(b, digs...)
		return append(b, "00000"[:dp-nd]...)
	}
}

// put8 writes x < 10^8 to p as eight digits, leading zeros included.
func put8(p *[8]byte, x uint32) {
	hi, lo := x/1e4, x%1e4
	a, b, c, d := hi/100, hi%100, lo/100, lo%100
	p[0], p[1] = digitPairs[2*a], digitPairs[2*a+1]
	p[2], p[3] = digitPairs[2*b], digitPairs[2*b+1]
	p[4], p[5] = digitPairs[2*c], digitPairs[2*c+1]
	p[6], p[7] = digitPairs[2*d], digitPairs[2*d+1]
}
