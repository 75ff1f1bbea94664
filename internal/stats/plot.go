package stats

import (
	"fmt"
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
