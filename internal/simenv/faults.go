package simenv

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"qasom/internal/core"
	"qasom/internal/randx"
	"qasom/internal/resilience"
)

// Fault describes an injected failure mode for one peer. The zero
// value is a healthy peer.
type Fault struct {
	// DropProb is the probability that the peer silently drops a
	// request (the caller sees a retryable transport error, never an
	// application reply).
	DropProb float64
	// Stall delays every reply by this wall-clock duration (on top of the
	// scaled response time), modelling congestion or a radio stall.
	Stall time.Duration
	// KillMidExchange makes the peer sever the connection after
	// accepting the request, so the caller reads a truncated reply.
	KillMidExchange bool
}

// FaultInjector wraps core transports with per-peer faults, letting the
// distributed-selection experiments fail coordinators deterministically
// without a real network. Draws come from a seeded source per peer, so
// the same seed reproduces the same fault pattern regardless of the
// order in which peers are exercised.
type FaultInjector struct {
	seed int64

	mu     sync.Mutex
	faults map[string]Fault
	rngs   map[string]*rand.Rand
}

// NewFaultInjector creates an injector whose drop draws derive from seed.
func NewFaultInjector(seed int64) *FaultInjector {
	return &FaultInjector{
		seed:   seed,
		faults: make(map[string]Fault),
		rngs:   make(map[string]*rand.Rand),
	}
}

// Set installs (or replaces) the fault for a peer; the zero Fault clears
// its effect while keeping the peer's draw stream.
func (fi *FaultInjector) Set(peer string, f Fault) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.faults[peer] = f
}

// draw decides this exchange's fate for the peer under its current fault.
func (fi *FaultInjector) draw(peer string) (drop bool, stall time.Duration, kill bool) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	f, ok := fi.faults[peer]
	if !ok {
		return false, 0, false
	}
	if f.DropProb > 0 {
		rng := fi.rngs[peer]
		if rng == nil {
			// One sub-stream per peer: deterministic per (seed, peer) and
			// independent of how other peers interleave.
			var h int64
			for _, b := range []byte(peer) {
				h = h*131 + int64(b)
			}
			rng = randx.Derive(fi.seed, h)
			fi.rngs[peer] = rng
		}
		drop = rng.Float64() < f.DropProb
	}
	return drop, f.Stall, f.KillMidExchange
}

// Wrap decorates a transport with the injector's faults for its peer.
func (fi *FaultInjector) Wrap(t core.Transport) core.Transport {
	return &faultyTransport{inner: t, fi: fi}
}

type faultyTransport struct {
	inner core.Transport
	fi    *FaultInjector
}

func (t *faultyTransport) Peer() string { return t.inner.Peer() }

func (t *faultyTransport) Exchange(ctx context.Context, req core.LocalRequest) (*core.LocalResult, error) {
	drop, stall, kill := t.fi.draw(t.inner.Peer())
	if stall > 0 {
		if !resilience.Sleep(ctx, stall) {
			return nil, resilience.CauseErr(ctx)
		}
	}
	if drop {
		return nil, resilience.AsRetryable(
			fmt.Errorf("simenv: peer %q dropped the exchange", t.inner.Peer()))
	}
	if kill {
		return nil, resilience.AsRetryable(
			fmt.Errorf("simenv: peer %q closed the connection mid-exchange: unexpected EOF", t.inner.Peer()))
	}
	return t.inner.Exchange(ctx, req)
}
