package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"qasom/internal/registry"
	"qasom/internal/sortx"
)

// orderSizes straddle the stable sort's 20-element insertion blocks and
// its merge passes.
var orderSizes = []int{0, 1, 2, 3, 19, 20, 21, 39, 40, 41, 64, 100, 257}

// randomRanked draws a ranked list full of ties: few levels, class sizes
// and utilities, repeated service IDs, and the odd NaN utility. Name
// carries each entry's original position so equal entries stay
// distinguishable.
func randomRanked(rng *rand.Rand, n int) []RankedCandidate {
	utils := []float64{0.25, 0.5, 0.5, 0.75, 1, math.NaN()}
	out := make([]RankedCandidate, n)
	for i := range out {
		out[i] = RankedCandidate{
			Service: &registry.Description{
				ID:   registry.ServiceID(fmt.Sprintf("s%02d", rng.Intn(n/3+1))),
				Name: strconv.Itoa(i),
			},
			Utility:   utils[rng.Intn(len(utils))],
			Level:     1 + rng.Intn(3),
			ClassSize: 1 + rng.Intn(3),
		}
	}
	return out
}

func rankedNames(r []RankedCandidate) []string {
	out := make([]string, len(r))
	for i := range r {
		out[i] = r[i].Service.Name
	}
	return out
}

// TestDifferentialRankOrder checks the local phase's permutation sort
// against the sort.SliceStable it replaced, on lists with utility ties,
// duplicate IDs and NaN utilities: the same entries in the same order,
// reusing one permutation buffer across lists as localSelect does.
func TestDifferentialRankOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var perm []int32
	for _, n := range orderSizes {
		for trial := 0; trial < 20; trial++ {
			got := randomRanked(rng, n)
			want := append([]RankedCandidate(nil), got...)
			sort.SliceStable(want, func(a, b int) bool {
				ra, rb := &want[a], &want[b]
				if ra.Level != rb.Level {
					return ra.Level < rb.Level
				}
				if ra.ClassSize != rb.ClassSize {
					return ra.ClassSize > rb.ClassSize
				}
				if ra.Utility != rb.Utility {
					return ra.Utility > rb.Utility
				}
				return ra.Service.ID < rb.Service.ID
			})
			perm = sortx.SortStable(got, perm, compareRanked)
			if g, w := fmt.Sprint(rankedNames(got)), fmt.Sprint(rankedNames(want)); g != w {
				t.Fatalf("n=%d trial %d: order %s, want %s", n, trial, g, w)
			}
		}
	}
}
