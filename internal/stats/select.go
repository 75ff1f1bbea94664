package stats

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// Rank returns the 0-based index of the p-th percentile (0 < p <= 100)
// of n > 0 sorted values by nearest rank: the smallest value with at
// least p% of the values at or below it. p <= 0 selects the minimum and
// p >= 100 the maximum.
func Rank(p float64, n int) int {
	if p <= 0 {
		return 0
	}
	if p >= 100 {
		return n - 1
	}
	// The small epsilon keeps e.g. ceil(99.9/100*1000) at rank 999 despite
	// binary floating point rounding 0.999*1000 up to 999.0000000000001.
	rank := int(math.Ceil(float64(p/100*float64(n)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return rank - 1
}

// Select returns the k-th smallest value of v (0-based), the value
// slices.Sort would leave at v[k], in time linear in len(v) on average.
// It reorders v. Panics unless 0 <= k < len(v).
func Select(v []int64, k int) int64 {
	x, _ := selectCounted(v, k, 2*bits.Len(uint(len(v))))
	return x
}

// selectCounted is Select, also returning the number of element
// comparisons it made. It is a deterministic quickselect: each round
// partitions the remaining range three ways around the median of its
// first, middle and last values, so every copy of the pivot leaves the
// range at once and an all-equal range costs one round.
// After the given number of rounds (Select allows 2·log₂n) it sorts
// whatever range is left instead, so no input costs more than sorting v
// would.
func selectCounted(v []int64, k, rounds int) (int64, int) {
	if k < 0 || k >= len(v) {
		panic("stats: selection rank out of range")
	}
	cmps := 0
	lo, hi := 0, len(v)
	for ; hi-lo > 1; rounds-- {
		if rounds == 0 {
			slices.SortFunc(v[lo:hi], func(a, b int64) int {
				cmps++
				return cmp.Compare(a, b)
			})
			return v[k], cmps
		}
		a, p, c := v[lo], v[lo+(hi-lo)/2], v[hi-1]
		if a > p {
			a, p = p, a
		}
		if p > c {
			p = max(a, c)
		}
		cmps += 3
		// v[lo:lt] < p, v[lt:i] == p, v[gt:hi] > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := v[i]; {
			case x < p:
				v[lt], v[i] = x, v[lt]
				lt++
				i++
				cmps++
			case x > p:
				gt--
				v[i], v[gt] = v[gt], x
				cmps += 2
			default:
				i++
				cmps += 2
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return p, cmps
		}
	}
	return v[k], cmps
}
