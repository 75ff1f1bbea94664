package stats

import (
	"math"
	"strings"
	"testing"
)

func TestPlotCDF(t *testing.T) {
	r := NewRecorder()
	for i := 1; i <= 1000; i++ {
		r.Add(Sample{Total: int64(i) * 1000}, int64(i))
	}
	out := r.All().PlotCDF("latency", 40)
	if !strings.Contains(out, "latency (n=1000)") {
		t.Fatalf("missing title: %s", out)
	}
	for _, p := range []string{"p50", "p99.9", "p100"} {
		if !strings.Contains(out, p) {
			t.Errorf("missing %s row", p)
		}
	}
	// The p100 bar must be the full width.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	if strings.Count(last, "#") != 40 {
		t.Errorf("p100 bar = %d hashes, want 40", strings.Count(last, "#"))
	}
}

func TestPlotCDFEmpty(t *testing.T) {
	out := NewRecorder().All().PlotCDF("empty", 0)
	if !strings.Contains(out, "(empty)") {
		t.Fatalf("empty plot: %s", out)
	}
}

// TestRenderAnyDistribution: PlotCDF takes any distribution a Recorder
// can hold, where max-min may exceed MaxInt64 and values may be negative,
// and keeps every bar within its width.
func TestRenderAnyDistribution(t *testing.T) {
	for _, vals := range [][]int64{
		{0, math.MaxInt64},
		{math.MinInt64, math.MaxInt64},
		{-1, 5},
		{math.MinInt64, 1},
		{-5, -1},
		{math.MaxInt64, math.MaxInt64},
		{math.MinInt64},
	} {
		d := rec(vals...).All()
		if msg := renderMismatch(d, 40); msg != "" {
			t.Errorf("%v: %s", vals, msg)
		}
	}
}
