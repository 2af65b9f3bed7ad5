// Package sortx sorts slices of large structs through an index
// permutation: the comparisons run on a []int32, and each element then
// moves once into its final place. The result is the one
// sort.SliceStable gives for the same ordering — slices.SortStableFunc
// runs the same insertion-sort-and-SymMerge algorithm and asks the same
// "a before b" questions in the same order — so swapping one for the
// other cannot change any order, ties and inconsistent comparators
// included.
package sortx

import "slices"

// SortStable sorts s stably by cmp, which reports a negative value when
// *a must come before *b. perm is scratch of any length; SortStable
// returns it, grown to len(s) when needed, for reuse.
func SortStable[T any](s []T, perm []int32, cmp func(a, b *T) int) []int32 {
	if cap(perm) < len(s) {
		perm = make([]int32, len(s))
	}
	perm = perm[:len(s)]
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortStableFunc(perm, func(a, b int32) int { return cmp(&s[a], &s[b]) })
	Apply(s, perm)
	return perm
}

// Apply rearranges s in place so that the element at position p is the
// one perm[p] named before the call, following each cycle of perm once.
// perm must be a permutation of 0..len(s)-1; Apply leaves it the
// identity.
func Apply[T any](s []T, perm []int32) {
	for i := range perm {
		if int(perm[i]) == i {
			continue
		}
		tmp := s[i]
		j := i
		for {
			k := int(perm[j])
			perm[j] = int32(j)
			if k == i {
				s[j] = tmp
				break
			}
			s[j] = s[k]
			j = k
		}
	}
}
