package sortx

import (
	"math/rand"
	"sort"
	"testing"
)

type item struct{ key, pos int }

// TestDifferentialSortStable checks SortStable against sort.SliceStable
// on lists full of equal keys, reusing one permutation buffer, and that
// the buffer comes back as the identity.
func TestDifferentialSortStable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var perm []int32
	for _, n := range []int{0, 1, 2, 19, 20, 21, 40, 41, 100, 300} {
		for trial := 0; trial < 20; trial++ {
			got := make([]item, n)
			for i := range got {
				got[i] = item{key: rng.Intn(n/4 + 1), pos: i}
			}
			want := append([]item(nil), got...)
			sort.SliceStable(want, func(a, b int) bool { return want[a].key < want[b].key })
			perm = SortStable(got, perm, func(a, b *item) int { return a.key - b.key })
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d: position %d holds %v, want %v", n, i, got[i], want[i])
				}
				if int(perm[i]) != i {
					t.Fatalf("n=%d: permutation not reset at %d", n, i)
				}
			}
		}
	}
}

// TestApplyFollowsEveryCycle checks Apply against a copy through the
// permutation for random permutations.
func TestApplyFollowsEveryCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 7, 64, 500} {
		s := rng.Perm(n)
		p := rng.Perm(n)
		perm := make([]int32, n)
		want := make([]int, n)
		for i := range p {
			perm[i] = int32(p[i])
			want[i] = s[p[i]]
		}
		Apply(s, perm)
		for i := range s {
			if s[i] != want[i] {
				t.Fatalf("n=%d: position %d holds %d, want %d", n, i, s[i], want[i])
			}
		}
	}
}
