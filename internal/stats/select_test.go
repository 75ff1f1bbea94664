package stats

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// selectInputs returns the input shapes of length n the selection
// property runs on: random, duplicate-heavy, and the classic quickselect
// adversaries.
func selectInputs(r *rand.Rand, n int) map[string][]int64 {
	in := map[string][]int64{
		"random": make([]int64, n), "dups": make([]int64, n),
		"sorted": make([]int64, n), "reversed": make([]int64, n),
		"organ-pipe": make([]int64, n), "all-equal": make([]int64, n),
	}
	for i := 0; i < n; i++ {
		in["random"][i] = r.Int63n(1e9) - 5e8
		in["dups"][i] = r.Int63n(4)
		in["sorted"][i] = int64(i)
		in["reversed"][i] = int64(n - i)
		in["organ-pipe"][i] = int64(min(i, n-1-i))
		in["all-equal"][i] = 7
	}
	return in
}

// Property: Select returns the value sorting would put at every rank k,
// for inputs of length 1–300, within a c·n·log₂n comparison budget — so
// no input makes it costlier than the sort it replaces. Each selection
// is repeated with a budget of 0–2 partitioning rounds, so the sort
// fallback runs at every rank too.
func TestSelectEqualsSorting(t *testing.T) {
	const c = 6
	r := rand.New(rand.NewSource(1))
	worst := 0.0
	for n := 1; n <= 300; n++ {
		for shape, in := range selectInputs(r, n) {
			sorted := slices.Clone(in)
			slices.Sort(sorted)
			budget := c * float64(n) * max(1, math.Log2(float64(n)))
			v := make([]int64, n)
			for k := 0; k < n; k++ {
				copy(v, in)
				got, cmps := selectCounted(v, k, 2*bits.Len(uint(n)))
				if got != sorted[k] {
					t.Fatalf("%s n=%d k=%d: Select = %d, sorted has %d", shape, n, k, got, sorted[k])
				}
				if float64(cmps) > budget {
					t.Fatalf("%s n=%d k=%d: %d comparisons, over %.0f", shape, n, k, cmps, budget)
				}
				worst = max(worst, float64(cmps)/(float64(n)*max(1, math.Log2(float64(n)))))
				copy(v, in)
				if got, _ := selectCounted(v, k, k%3); got != sorted[k] {
					t.Fatalf("%s n=%d k=%d, %d rounds then sort: %d, sorted has %d", shape, n, k, k%3, got, sorted[k])
				}
			}
		}
	}
	t.Logf("worst comparisons per n·log₂n: %.2f (budget %d)", worst, c)
}

func TestSelectPanicsOutOfRange(t *testing.T) {
	for _, k := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Select(len 3, %d) did not panic", k)
				}
			}()
			Select([]int64{1, 2, 3}, k)
		}()
	}
}

// Rank is the one nearest-rank rule: Kyber's 64-sample p95 is index 60,
// and the pacer's 128-sample p99 index 126.
func TestRank(t *testing.T) {
	for _, tc := range []struct {
		p    float64
		n    int
		want int
	}{
		{95, 64, 60}, {99, 128, 126}, {99.9, 1000, 998}, {50, 1, 0}, {0.1, 10, 0},
	} {
		if got := Rank(tc.p, tc.n); got != tc.want {
			t.Errorf("Rank(%v, %d) = %d, want %d", tc.p, tc.n, got, tc.want)
		}
	}
}
