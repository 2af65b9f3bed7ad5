package randx

import (
	"math/rand"
	"testing"
)

// draws exercises every Rand method once, returning what each produced
// (as float64 for comparison; Read bytes folded in).
func draws(r *rand.Rand) []float64 {
	out := []float64{
		float64(r.Int63()), float64(r.Uint64()), float64(r.Uint32()), float64(r.Int31()),
		float64(r.Int()), float64(r.Int63n(1e12)), float64(r.Int31n(1000)), float64(r.Intn(7)),
		r.Float64(), float64(r.Float32()), r.NormFloat64(), r.ExpFloat64(),
	}
	for _, v := range r.Perm(5) {
		out = append(out, float64(v))
	}
	s := []int{0, 1, 2, 3, 4, 5}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	for _, v := range s {
		out = append(out, float64(v))
	}
	var b [11]byte
	r.Read(b[:])
	for _, v := range b {
		out = append(out, float64(v))
	}
	return out
}

func sameDraws(t *testing.T, what string, got, want *rand.Rand, rounds int) {
	t.Helper()
	for round := 0; round < rounds; round++ {
		g, w := draws(got), draws(want)
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s, round %d: draw %d = %v, want %v", what, round, i, g[i], w[i])
			}
		}
	}
}

// TestDifferentialTape checks that a taped source yields math/rand's own
// stream through every Rand method, across the end of its tape: each
// stream first takes tapeLen-1, tapeLen or tapeLen+1 outputs, then runs
// every method for several rounds.
func TestDifferentialTape(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7} {
		ref := seed
		if ref == 0 {
			ref = 1
		}
		for _, skip := range []int{0, tapeLen - 1, tapeLen, tapeLen + 1} {
			got, want := New(seed), rand.New(rand.NewSource(ref))
			for i := 0; i < skip; i++ {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d: output %d = %d, want %d", seed, i, g, w)
				}
			}
			sameDraws(t, "after skip", got, want, 12)
		}
	}
}

// TestDifferentialTapeSeed checks Rand.Seed on a taped source, mid-tape
// and past it: the stream restarts as math/rand's does.
func TestDifferentialTapeSeed(t *testing.T) {
	for _, skip := range []int{3, tapeLen + 3} {
		got, want := New(5), rand.New(rand.NewSource(5))
		for i := 0; i < skip; i++ {
			got.Uint64()
			want.Uint64()
		}
		got.Seed(99)
		want.Seed(99)
		sameDraws(t, "after Seed", got, want, 20)
	}
}

// TestDifferentialDerive checks Derive against a plain source seeded the
// same way, and that a fan-out of derived streams wider than the tape
// cache takes none of its slots: a seed New sees afterwards still gets
// a tape.
func TestDifferentialDerive(t *testing.T) {
	withEmptyTapes(t)
	mix, seed := int64(-7046029254386353131), int64(3)
	for stream := int64(0); stream < 3*maxTapes; stream++ {
		got, want := Derive(seed, stream), rand.New(rand.NewSource(seed*mix+stream+1))
		sameDraws(t, "derived stream", got, want, 2)
	}
	if m := tapes.Load(); m != nil && len(*m) > 0 {
		t.Fatalf("derived streams took %d tape slots, want 0", len(*m))
	}
	New(seed)
	if tapeOf(seed) == nil {
		t.Fatalf("seed %d got no tape after a Derive fan-out", seed)
	}
}

// TestDifferentialTapeBound checks that the tape cache stops at maxTapes
// seeds and that seeds past the bound still draw their own stream.
func TestDifferentialTapeBound(t *testing.T) {
	withEmptyTapes(t)
	for seed := int64(1); seed <= 3*maxTapes; seed++ {
		sameDraws(t, "seed past the bound", New(seed), rand.New(rand.NewSource(seed)), 2)
	}
	if n := len(*tapes.Load()); n != maxTapes {
		t.Fatalf("tape cache holds %d seeds, want %d", n, maxTapes)
	}
}

// withEmptyTapes runs a test against an empty tape cache and restores
// the process's cache afterwards.
func withEmptyTapes(t *testing.T) {
	saved := tapes.Load()
	tapes.Store(nil)
	t.Cleanup(func() { tapes.Store(saved) })
}

// TestNewSharesTapes checks that a cached seed allocates only its
// source and Rand, not a generator state.
func TestNewSharesTapes(t *testing.T) {
	New(1)
	if n := testing.AllocsPerRun(100, func() { New(1).Int63() }); n > 2 {
		t.Fatalf("New of a cached seed allocates %.0f objects, want at most 2", n)
	}
}
