package fleet

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestNormalizeWorkers is the one table for every parallelism knob in the
// codebase: worker pools, daemon capacities and ForEach all normalize
// through this helper, so zero/negative handling cannot drift per call
// site.
func TestNormalizeWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		in, want int
	}{
		{-100, procs},
		{-1, procs},
		{0, procs},
		{1, 1},
		{7, 7},
		{1024, 1024},
	}
	for _, tc := range cases {
		if got := NormalizeWorkers(tc.in); got != tc.want {
			t.Errorf("NormalizeWorkers(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
	// The fleet constructor and the scheduling primitive agree with the
	// helper by construction — pin the visible surfaces.
	if got := New(Config{Workers: -3}).Workers(); got != procs {
		t.Errorf("New(Workers: -3).Workers() = %d, want %d", got, procs)
	}
	if got := New(Config{Workers: 5}).Workers(); got != 5 {
		t.Errorf("New(Workers: 5).Workers() = %d, want 5", got)
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		const n = 57
		var hits [n]atomic.Int32
		ForEach(n, workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForEachEmptyAndNegative(t *testing.T) {
	called := false
	ForEach(0, 4, func(int) { called = true })
	ForEach(-3, 4, func(int) { called = true })
	if called {
		t.Fatal("ForEach should not call fn for n <= 0")
	}
}

func TestDeriveSeedProperties(t *testing.T) {
	seen := map[int64]int{}
	for _, base := range []int64{0, 1, 42, -7} {
		for i := 0; i < 1000; i++ {
			s := DeriveSeed(base, i)
			if s == 0 {
				t.Fatalf("DeriveSeed(%d, %d) = 0", base, i)
			}
			if s != DeriveSeed(base, i) {
				t.Fatalf("DeriveSeed(%d, %d) not stable", base, i)
			}
			seen[s]++
		}
	}
	// 4000 derivations over 64 bits: any collision means a broken mix.
	for s, n := range seen {
		if n > 1 {
			t.Fatalf("seed %d derived %d times", s, n)
		}
	}
}
