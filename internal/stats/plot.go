package stats

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// PlotCDF renders an ASCII tail-CDF of the distribution, the terminal
// equivalent of the paper's Fig. 16/19 panels. width sets the bar span.
func (d Dist) PlotCDF(title string, width int) string {
	if width < 10 {
		width = 40
	}
	pcts := []float64{50, 90, 95, 98.5, 99, 99.5, 99.9, 100}
	top := d.Percentile(100)
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d)\n", title, d.Len())
	if top == 0 {
		b.WriteString("  (empty)\n")
		return b.String()
	}
	for _, p := range pcts {
		v := d.Percentile(p)
		// Clamped to [0, width]: a negative v, or any v of a distribution
		// whose maximum is negative, falls outside it.
		bar := int(min(max(float64(v)/float64(top)*float64(width), 0), float64(width)))
		if bar < 1 && v > 0 {
			bar = 1
		}
		fmt.Fprintf(&b, "  p%-5.4g |%-*s| %s\n", p, width, strings.Repeat("#", bar), Ms(v))
	}
	return b.String()
}

// Histogram renders an ASCII latency histogram with the given number of
// equal-width buckets over [min, max].
func (d Dist) Histogram(buckets, width int) string {
	if buckets < 2 {
		buckets = 10
	}
	if width < 10 {
		width = 40
	}
	if d.Len() == 0 {
		return "(empty)\n"
	}
	// The bucket width and each value's offset from lo are uint64s:
	// hi-lo may exceed MaxInt64.
	lo, hi := d.Min(), d.Max()
	n, diff := uint64(buckets), uint64(hi)-uint64(lo)
	span := diff / n
	if diff%n != 0 || span == 0 {
		span++
	}
	counts := make([]int, buckets)
	for _, v := range d.v {
		counts[min((uint64(v)-uint64(lo))/span, n-1)]++
	}
	// edge returns the lower bound of bucket i, saturating at MaxInt64.
	edge := func(i int) int64 {
		carry, off := bits.Mul64(uint64(i), span)
		if carry != 0 || off > math.MaxInt64-uint64(lo) {
			return math.MaxInt64
		}
		return lo + int64(off)
	}
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var b strings.Builder
	for i, c := range counts {
		bar := 0
		if maxCount > 0 {
			bar = c * width / maxCount
		}
		fmt.Fprintf(&b, "%10s-%10s |%-*s| %d\n",
			Us(edge(i)), Us(edge(i+1)), width,
			strings.Repeat("#", bar), c)
	}
	return b.String()
}
