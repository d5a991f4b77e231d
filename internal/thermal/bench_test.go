package thermal

import "testing"

// BenchmarkPropagatorAdvance measures the single-network exact advance —
// the per-tick mat-vec of the fixed-tick stepping loop.
func BenchmarkPropagatorAdvance(b *testing.B) {
	net, nodes := NewPhone(DefaultPhoneConfig())
	net.SetPower(nodes.Die, 2.5)
	net.Step(0.05) // warm the propagator caches outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step(0.05)
	}
	b.ReportMetric(net.Temp(nodes.Die), "die-C")
}
