package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestScratchKMeans1DMatchesGeneric pins the bit-exact equivalence the
// pooled hot path relies on: for identical inputs and seeds the scratch
// path must return exactly the generic KMeans1D result — centroids,
// assignment, sizes, iterations and inertia — across both seeding
// strategies, duplicate-heavy inputs and k larger than distinct count.
func TestScratchKMeans1DMatchesGeneric(t *testing.T) {
	var s Scratch
	gen := rand.New(rand.NewSource(42))
	shapes := []func(n int) float64{
		func(n int) float64 { return gen.NormFloat64()*15 + 50 },
		func(n int) float64 { return float64(n % 4) }, // heavy duplicates
		func(n int) float64 { return gen.Float64() },
	}
	for _, seeding := range []Seeding{SeedPlusPlus, SeedUniform} {
		for si, shape := range shapes {
			for _, n := range []int{1, 2, 7, 50, 300} {
				values := make([]float64, n)
				for i := range values {
					values[i] = shape(i)
				}
				for seed := int64(1); seed <= 5; seed++ {
					for _, k := range []int{1, 2, 4, 6} {
						want, err := KMeans1D(values, k, Options{
							Seeding: seeding, Rand: rand.New(rand.NewSource(seed)),
						})
						if err != nil {
							t.Fatal(err)
						}
						got, err := s.KMeans1D(values, k, Options{
							Seeding: seeding, Rand: rand.New(rand.NewSource(seed)),
						})
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("seeding=%d shape=%d n=%d seed=%d k=%d:\n generic %+v\n scratch %+v",
								seeding, si, n, seed, k, want, got)
						}
					}
				}
			}
		}
	}
}

// TestScratchKMeans1DValidation mirrors the generic validation errors.
func TestScratchKMeans1DValidation(t *testing.T) {
	var s Scratch
	for _, tt := range []struct {
		name   string
		values []float64
		k      int
	}{
		{"no points", nil, 2},
		{"k zero", []float64{1}, 0},
		{"nan", []float64{math.NaN()}, 1},
		{"inf", []float64{math.Inf(-1)}, 1},
	} {
		if _, err := s.KMeans1D(tt.values, tt.k, Options{}); err == nil {
			t.Errorf("%s: expected error", tt.name)
		}
	}
}

// TestScratchRanksIntoMatchesRanks1D: the insertion-sort stable ordering
// must reproduce sort.SliceStable's ranks exactly, including ties from
// duplicate centroids.
func TestScratchRanksIntoMatchesRanks1D(t *testing.T) {
	var s Scratch
	gen := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 3 + gen.Intn(60)
		values := make([]float64, n)
		for i := range values {
			values[i] = float64(gen.Intn(6)) // few distinct values → tied centroids
		}
		res, err := KMeans1D(values, 4, Options{Rand: rand.New(rand.NewSource(int64(trial)))})
		if err != nil {
			t.Fatal(err)
		}
		for _, hb := range []bool{true, false} {
			want := Ranks1D(res, hb)
			got := s.RanksInto(make([]int, len(res.Assign)), res, hb)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("trial %d hb=%v: want %v got %v", trial, hb, want, got)
			}
		}
	}
}

// TestScratchKMeans1DZeroAllocSteadyState enforces the pooling payoff: a
// warmed scratch must cluster without allocating at all.
func TestScratchKMeans1DZeroAllocSteadyState(t *testing.T) {
	var s Scratch
	rng := rand.New(rand.NewSource(11))
	values := make([]float64, 300)
	for i := range values {
		values[i] = rng.NormFloat64()*15 + 50
	}
	ranks := make([]int, len(values))
	run := func() {
		res, err := s.KMeans1D(values, 4, Options{Rand: rng})
		if err != nil {
			t.Fatal(err)
		}
		s.RanksInto(ranks, res, true)
	}
	run() // warm the buffers
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Errorf("warmed scratch KMeans1D allocates %.1f/op, want 0", avg)
	}
}

func BenchmarkScratchKMeans1D(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	values := make([]float64, 300)
	for i := range values {
		values[i] = rng.NormFloat64()*15 + 50
	}
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.KMeans1D(values, 4, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDifferentialAssign1D checks assign1D, which reads the centroids
// from a flat copy (on the stack up to flatK of them), against the
// generic assignPoints: equidistant ties (values and centroids on a half-integer
// grid, so a value sits exactly between two centroids), duplicate
// centroids, and k on both sides of flatK.
func TestDifferentialAssign1D(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, k := range []int{1, 2, 3, 4, 8, flatK - 1, flatK, flatK + 1, 3 * flatK} {
		for trial := 0; trial < 20; trial++ {
			values := make([]float64, 1+rng.Intn(200))
			points := make([][]float64, len(values))
			for i := range values {
				values[i] = float64(rng.Intn(40)) / 2
				points[i] = []float64{values[i]}
			}
			centroids := make([][]float64, k)
			for c := range centroids {
				centroids[c] = []float64{float64(rng.Intn(40)) / 2}
			}
			got := make([]int, len(values))
			want := make([]int, len(values))
			for i := range got {
				got[i] = rng.Intn(k)
				want[i] = got[i]
			}
			gotChanged := assign1D(values, centroids, got)
			wantChanged := assignPoints(points, centroids, want)
			if gotChanged != wantChanged {
				t.Fatalf("k=%d: changed %v, want %v", k, gotChanged, wantChanged)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("k=%d: value %v assigned to %d, want %d (centroids %v)", k, values[i], got[i], want[i], centroids)
				}
			}
		}
	}
}
