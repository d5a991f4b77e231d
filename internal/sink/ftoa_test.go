package sink

import (
	"fmt"
	"math"
	"math/big"
	"math/rand/v2"
	"strconv"
	"testing"
)

// checkFloat fails t unless appendFloat formats v as strconv does.
func checkFloat(t testing.TB, v float64) {
	t.Helper()
	want := strconv.AppendFloat(nil, v, 'g', -1, 64)
	if got := appendFloat(nil, v); string(got) != string(want) {
		t.Fatalf("appendFloat(%#016x) = %s, strconv = %s", math.Float64bits(v), got, want)
	}
}

// checkNeighbours checks v, its neighbours one ulp away and their
// negations.
func checkNeighbours(t testing.TB, v float64) {
	t.Helper()
	for _, w := range []float64{math.Nextafter(v, math.Inf(-1)), v, math.Nextafter(v, math.Inf(1))} {
		checkFloat(t, w)
		checkFloat(t, -w)
	}
}

// edgeFloats are the classes where a shortest-digit kernel goes wrong
// first; they also seed FuzzAppendFloat.
func edgeFloats() []float64 {
	vs := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
		math.Float64frombits(1<<52 - 1), // largest subnormal
		0x1p-1022,                       // smallest normal
		math.MaxFloat64,
		1 << 53, 1<<53 + 2, 1<<53 - 1, 1 << 54, 1<<63 + 1<<11,
		1e-5, 1e-4, 1e6, 1e21, 9.9999e-5, 999999.5, 123456.7,
		1.0500000000000003, 31.234567890123456, 0.1, 0.3, 2.5e-323,
	}
	for e := -1074; e <= 1023; e++ {
		vs = append(vs, math.Ldexp(1, e))
	}
	for e := -323; e <= 308; e++ {
		v, err := strconv.ParseFloat(fmt.Sprintf("1e%d", e), 64)
		if err != nil {
			panic(err)
		}
		vs = append(vs, v)
	}
	return vs
}

func TestAppendFloatMatchesStrconv(t *testing.T) {
	for _, v := range edgeFloats() {
		checkNeighbours(t, v)
	}
	// Every subnormal with a short significand, and the first integers.
	for m := uint64(1); m < 1<<12; m++ {
		checkFloat(t, math.Float64frombits(m))
		checkFloat(t, float64(m))
	}
	// Integers below and above 2^53, and multiples of powers of ten,
	// where v can sit exactly between two shortest candidates.
	for i := int64(-1000); i <= 1000; i++ {
		checkFloat(t, float64(1<<53+i))
		checkFloat(t, float64(1<<60+i<<8))
	}
	for m := 1.0; m < 1000; m++ {
		for e := 0; e <= 22; e++ {
			checkNeighbours(t, m*math.Pow10(e))
			checkNeighbours(t, m/math.Pow10(e))
		}
	}
	rng := rand.New(rand.NewPCG(1, 2))
	n := 2_000_000
	if testing.Short() {
		n = 100_000
	}
	for i := 0; i < n; i++ {
		checkFloat(t, math.Float64frombits(rng.Uint64()))
		checkFloat(t, float64(rng.Int64()>>rng.IntN(64)))
		// Telemetry-shaped: 16–17 significant digits between 1e-3 and 1e5.
		checkFloat(t, math.Pow10(rng.IntN(8)-3)*rng.Float64())
	}
}

func FuzzAppendFloat(f *testing.F) {
	for _, v := range edgeFloats() {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		checkFloat(t, math.Float64frombits(u))
	})
}

// ratPow returns b^e as a rational.
func ratPow(b int64, e int) *big.Rat {
	p := new(big.Int).Exp(big.NewInt(b), big.NewInt(int64(max(e, -e))), nil)
	if e < 0 {
		return new(big.Rat).SetFrac(big.NewInt(1), p)
	}
	return new(big.Rat).SetInt(p)
}

// floorLog returns ⌊log_b x⌋ for x > 0.
func floorLog(b int64, x *big.Rat) int {
	bits := x.Num().BitLen() - x.Denom().BitLen() // log2 x within ±1
	k := int(math.Floor(float64(bits-1) / math.Log2(float64(b))))
	for x.Cmp(ratPow(b, k)) < 0 {
		k--
	}
	for x.Cmp(ratPow(b, k+1)) >= 0 {
		k++
	}
	return k
}

// TestPow10Table re-derives every pow10Table entry with math/big.
func TestPow10Table(t *testing.T) {
	mask := new(big.Int).SetUint64(math.MaxUint64)
	for i, got := range pow10Table {
		e := pow10Min + i
		p := ratPow(10, e)
		x := p.Mul(p, ratPow(2, 125-floorLog(2, p))) // 10^e·2^-r
		g := new(big.Int).Quo(x.Num(), x.Denom())
		g.Add(g, big.NewInt(1))
		want := [2]uint64{new(big.Int).Rsh(g, 64).Uint64(), new(big.Int).And(g, mask).Uint64()}
		if got != want {
			t.Fatalf("pow10Table[%d] (1e%d) = %#x, want %#x", i, e, got, want)
		}
	}
}

// TestSchubfachLogs checks the fixed-point logarithms against math/big
// over every exponent a float64 reaches, and that pow10Table covers each
// power of ten schubfach looks up.
func TestSchubfachLogs(t *testing.T) {
	threeQuarters := big.NewRat(3, 4)
	for q := -1074; q <= 971; q++ {
		p2 := ratPow(2, q)
		k := floorLog(10, p2)
		if got := flog10Pow2(q); got != k {
			t.Fatalf("flog10Pow2(%d) = %d, want %d", q, got, k)
		}
		k34 := floorLog(10, p2.Mul(p2, threeQuarters))
		if got := flog10ThreeQuartersPow2(q); got != k34 {
			t.Fatalf("flog10ThreeQuartersPow2(%d) = %d, want %d", q, got, k34)
		}
		for _, kk := range []int{k, k34} {
			if i := -kk - pow10Min; i < 0 || i >= len(pow10Table) {
				t.Fatalf("q = %d needs 1e%d, outside pow10Table", q, -kk)
			}
		}
	}
	for e := pow10Min; e < pow10Min+len(pow10Table); e++ {
		if got, want := flog2Pow10(e), floorLog(2, ratPow(10, e)); got != want {
			t.Fatalf("flog2Pow10(%d) = %d, want %d", e, got, want)
		}
	}
}

var sinkBytes []byte

// BenchmarkAppendFloat times the kernel and strconv on a real run's
// float fields, in line order.
func BenchmarkAppendFloat(b *testing.B) {
	var vs []float64
	for _, s := range tracedRun(b) {
		vs = append(vs, s.TimeSec, s.SkinC, s.ScreenC, s.DieC, s.BatteryC, s.FreqMHz, s.Util)
	}
	for _, bc := range []struct {
		name string
		fn   func([]byte, float64) []byte
	}{
		{"schubfach", appendFloat},
		{"strconv", func(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			buf := make([]byte, 0, 32)
			b.ReportAllocs()
			for i, j := 0, 0; i < b.N; i++ {
				buf = bc.fn(buf[:0], vs[j])
				if j++; j == len(vs) {
					j = 0
				}
			}
			sinkBytes = buf
		})
	}
}
