package sensors

import "math"

// CounterStream is a counter-based Gaussian noise stream: raw word i is a
// pure function of (seed, i) — a finalized splitmix64 counter — and draws
// are ziggurat transforms of those words. Compared to the legacy
// math/rand stream it seeds in O(1) (no 607-word lagged-Fibonacci
// register to fill, the reseed cost the fleet's phone pool pays four
// times per job) and supports position seeking, which is what makes noise
// reproducible under replay, checkpointing, and event-driven runs that
// need to consume exactly the draws a tick-by-tick run would have.
//
// The stream identity is (seed, position): two streams with equal seeds
// produce equal draw sequences regardless of how the draws are grouped
// across calls.
type CounterStream struct {
	key uint64
	ctr uint64
}

// NewCounterStream returns a stream for the given seed.
func NewCounterStream(seed int64) *CounterStream {
	return &CounterStream{key: splitmix64(uint64(seed))}
}

// splitmix64 is the 64-bit finalizer (same construction the workload and
// thermal packages use for value noise and fingerprints).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// next returns the next raw 64-bit word.
func (c *CounterStream) next() uint64 {
	c.ctr++
	return splitmix64(c.key ^ c.ctr*0x9e3779b97f4a7c15)
}

// Ziggurat tables for the standard normal (Marsaglia–Tsang, 128 strips),
// computed once at package init so the common draw path is one counter
// word, one table compare, and one multiply. The strip boundary r and the
// rectangle area are the canonical 128-strip constants.
const zigR = 3.442619855899

var (
	zigKn [128]uint32
	zigWn [128]float64
	zigFn [128]float64
)

func init() {
	const m1 = 1 << 31
	dn, tn, vn := zigR, zigR, 9.91256303526217e-3
	q := vn / math.Exp(-0.5*dn*dn)
	zigKn[0] = uint32(dn / q * m1)
	zigKn[1] = 0
	zigWn[0] = q / m1
	zigWn[127] = dn / m1
	zigFn[0] = 1
	zigFn[127] = math.Exp(-0.5 * dn * dn)
	for i := 126; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(vn/dn+math.Exp(-0.5*dn*dn)))
		zigKn[i+1] = uint32(dn / tn * m1)
		tn = dn
		zigFn[i] = math.Exp(-0.5 * dn * dn)
		zigWn[i] = dn / m1
	}
}

// uniOpen returns the next uniform in (0,1] (never zero, so logs stay
// finite); uniHalf returns the next uniform in [0,1).
func (c *CounterStream) uniOpen() float64 { return (float64(c.next()>>11) + 1) / (1 << 53) }
func (c *CounterStream) uniHalf() float64 { return float64(c.next()>>11) / (1 << 53) }

// NormFloat64 implements Stream: standard normal draws via the ziggurat.
// Word consumption per draw varies (one word on the ~99% fast path, more
// on edge/tail rejections), but it is a pure function of the stream
// position, so equal-seed streams stay in lockstep however their draws
// are grouped across calls.
func (c *CounterStream) NormFloat64() float64 {
	for {
		hz := int32(uint32(c.next()))
		iz := uint32(hz) & 127
		ahz := uint32(hz)
		if hz < 0 {
			ahz = uint32(-int64(hz))
		}
		if ahz < zigKn[iz] {
			return float64(hz) * zigWn[iz]
		}
		if iz == 0 {
			// Tail beyond r: Marsaglia's exponential wedge rejection.
			for {
				x := -math.Log(c.uniOpen()) / zigR
				y := -math.Log(c.uniOpen())
				if y+y >= x*x {
					if hz > 0 {
						return zigR + x
					}
					return -(zigR + x)
				}
			}
		}
		x := float64(hz) * zigWn[iz]
		if zigFn[iz]+c.uniHalf()*(zigFn[iz-1]-zigFn[iz]) < math.Exp(-0.5*x*x) {
			return x
		}
	}
}

// Seed implements Stream: restores the just-constructed state for seed.
// O(1), unlike the legacy stream's register fill.
func (c *CounterStream) Seed(seed int64) {
	c.key = splitmix64(uint64(seed))
	c.ctr = 0
}
