package resilience

import (
	"math"
	"math/rand"
	"time"
)

// Policy bounds the fault-tolerance behaviour of one logical operation
// (a distributed local-phase exchange, a service invocation). The zero
// value is usable and resolves to the defaults documented per field.
type Policy struct {
	// MaxAttempts bounds attempts including the first; 0 means 3,
	// negative means exactly 1 (no retries).
	MaxAttempts int
	// AttemptTimeout is the per-attempt deadline layered under the
	// caller's context; 0 means no per-attempt deadline.
	AttemptTimeout time.Duration
	// BaseBackoff is the delay before the first retry; 0 means 5ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth; 0 means 250ms.
	MaxBackoff time.Duration
	// Jitter is the relative backoff perturbation in [0,1] (0.2 = ±20%);
	// negative disables jitter, 0 means 0.2. Jitter draws come from the
	// caller's seeded source, so runs stay deterministic per seed.
	Jitter float64
	// HedgeDelay, when positive, fires a hedged second request at the
	// next replica once the primary has been silent this long; the first
	// reply wins. Zero disables hedging.
	HedgeDelay time.Duration
	// BreakerThreshold is the consecutive-failure count at which a
	// peer's breaker opens; 0 means 4, negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects a peer before
	// letting a probe through; 0 means 2s.
	BreakerCooldown time.Duration
}

// WithDefaults resolves the documented zero-value defaults.
func (p Policy) WithDefaults() Policy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 3
	}
	if p.MaxAttempts < 0 {
		p.MaxAttempts = 1
	}
	if p.BaseBackoff == 0 {
		p.BaseBackoff = 5 * time.Millisecond
	}
	if p.MaxBackoff == 0 {
		p.MaxBackoff = 250 * time.Millisecond
	}
	if p.Jitter == 0 {
		p.Jitter = 0.2
	}
	if p.BreakerThreshold == 0 {
		p.BreakerThreshold = 4
	}
	if p.BreakerCooldown == 0 {
		p.BreakerCooldown = 2 * time.Second
	}
	return p
}

// backoffMultiplier is the exponential growth factor of Backoff.
const backoffMultiplier = 2

// Backoff computes the delay before retry number retry (0-based), with
// jitter drawn from rng (nil rng or non-positive jitter: no jitter).
// The policy must already be resolved via WithDefaults.
func (p Policy) Backoff(retry int, rng *rand.Rand) time.Duration {
	d := float64(p.BaseBackoff) * math.Pow(backoffMultiplier, float64(retry))
	if d > float64(p.MaxBackoff) {
		d = float64(p.MaxBackoff)
	}
	if p.Jitter > 0 && rng != nil {
		d *= 1 + p.Jitter*(2*rng.Float64()-1)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}
