// Package randx centralises the repository's deterministic random-source
// seeding. Every layer that draws randomness (the executor's branch and
// iteration draws, the selector's K-means seeding, the simulated
// environment's noise and fault injection, the resilience layer's backoff
// jitter) derives its source through New, so "same seed ⇒ same run"
// holds across the whole pipeline and fault-injection experiments stay
// reproducible.
//
// Seeding math/rand's generator costs a 4.9 KB state and several hundred
// seeding steps, and the hot callers seed the same few seeds over and
// over (one source per local-phase activity and per Execute, all from
// the selector's or executor's one seed). So New keeps a tape of the
// first tapeLen outputs of each of the first maxTapes seeds it sees and
// replays it: the stream is the generator's own, output for output, and
// only a stream that outlives its tape seeds a real source.
package randx

import (
	"math/rand"
	"sync"
	"sync/atomic"
)

const (
	// tapeLen is how many leading Uint64 outputs a seed's tape holds:
	// enough for a local-phase activity's K-means seeding and for a
	// typical Execute.
	tapeLen = 256
	// maxTapes bounds the tape cache; seeds past it get a plain source.
	// Fan-out code derives one seed per peer or stream, so an unbounded
	// cache would grow with them.
	maxTapes = 64
)

type tape [tapeLen]uint64

var (
	// tapes is an immutable seed → tape map, replaced whole (copy on
	// write) under tapesMu, so readers take no lock.
	tapes   atomic.Pointer[map[int64]*tape]
	tapesMu sync.Mutex
)

// New returns a rand.Rand seeded with seed; the zero seed is normalised
// to 1 so the zero value of every Options struct stays reproducible
// (rand.NewSource(0) and rand.NewSource(1) differ, and 1 is the
// repository-wide default). Its draws are exactly those of
// rand.New(rand.NewSource(seed)).
func New(seed int64) *rand.Rand {
	if seed == 0 {
		seed = 1
	}
	if t := tapeOf(seed); t != nil {
		return rand.New(&tapeSource{tape: t, seed: seed})
	}
	return rand.New(rand.NewSource(seed))
}

// tapeOf returns the seed's tape, recording it first when the cache has
// room, or nil when the cache is full.
func tapeOf(seed int64) *tape {
	if m := tapes.Load(); m != nil {
		if t, ok := (*m)[seed]; ok {
			return t
		}
		if len(*m) >= maxTapes {
			return nil
		}
	}
	tapesMu.Lock()
	defer tapesMu.Unlock()
	var old map[int64]*tape
	if m := tapes.Load(); m != nil {
		old = *m
	}
	if t, ok := old[seed]; ok {
		return t
	}
	if len(old) >= maxTapes {
		return nil
	}
	t := new(tape)
	src := rand.NewSource(seed).(rand.Source64)
	for i := range t {
		t[i] = src.Uint64()
	}
	next := make(map[int64]*tape, len(old)+1)
	for s, o := range old {
		next[s] = o
	}
	next[seed] = t
	tapes.Store(&next)
	return t
}

// tapeSource replays a shared tape as a rand.Source64. When the tape
// runs out it seeds a real source and skips the outputs already
// replayed; Seed switches to a real source outright.
type tapeSource struct {
	tape *tape // shared, read-only
	pos  int
	seed int64
	src  rand.Source64 // nil while replaying
}

func (s *tapeSource) Uint64() uint64 {
	if s.src == nil {
		if s.pos < tapeLen {
			v := s.tape[s.pos]
			s.pos++
			return v
		}
		s.src = rand.NewSource(s.seed).(rand.Source64)
		for i := 0; i < tapeLen; i++ {
			s.src.Uint64()
		}
	}
	return s.src.Uint64()
}

// Int63 masks one Uint64 output, as math/rand's generator derives it.
func (s *tapeSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

func (s *tapeSource) Seed(seed int64) { s.src = rand.NewSource(seed).(rand.Source64) }

// Derive returns a source for a sub-stream of a seeded computation:
// deterministic per (seed, stream), and distinct streams do not share a
// sequence. Fan-out code (one coordinator per activity, one fault draw
// per peer) uses it so per-stream draws stay stable when the fan-out
// order changes. Derived streams draw rarely and there is one per
// stream, so they bypass the tape cache and leave its slots to the few
// seeds New is called with over and over.
func Derive(seed int64, stream int64) *rand.Rand {
	if seed == 0 {
		seed = 1
	}
	// Mix with a 64-bit odd constant (splitmix-style) so adjacent
	// streams land far apart in the generator's state space.
	const mix = int64(-7046029254386353131) // 0x9E3779B97F4A7C15 as int64
	return rand.New(rand.NewSource(seed*mix + stream + 1))
}
