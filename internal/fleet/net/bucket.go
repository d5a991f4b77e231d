package net

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// TokenBucket is a classic rate/burst admission gate: Rate tokens refill
// per second up to Burst, one token admits one job. The job server answers
// 429 when a submission cannot be admitted without waiting. The zero value
// is not useful; construct with NewTokenBucket.
type TokenBucket struct {
	rate  float64
	burst float64

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// NewTokenBucket creates a bucket refilling rate tokens per second with
// the given burst capacity (and that many tokens available immediately).
// It refuses a rate that is not a positive finite number and a burst
// below one: an admission gate that can never admit is a configuration
// error, not a policy.
func NewTokenBucket(rate float64, burst int) (*TokenBucket, error) {
	if !(rate > 0) || math.IsInf(rate, 1) || burst <= 0 {
		return nil, fmt.Errorf("net: token bucket needs a positive finite rate and a burst of at least 1, got rate %v, burst %d", rate, burst)
	}
	return &TokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst)}, nil
}

// refill credits tokens for the time elapsed since the last accounting.
// Callers hold mu.
func (b *TokenBucket) refill() {
	t := time.Now()
	if !b.last.IsZero() {
		b.tokens += t.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = t
}

// Allow takes n tokens if they are available right now, reporting whether
// it did. n larger than the burst can never be admitted and reports false.
func (b *TokenBucket) Allow(n int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refill()
	if float64(n) > b.tokens {
		return false
	}
	b.tokens -= float64(n)
	return true
}
