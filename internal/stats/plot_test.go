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

func TestHistogram(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 100; i++ {
		r.Add(Sample{Total: int64(i%10) * 1000}, int64(i))
	}
	out := r.All().Histogram(5, 20)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("buckets = %d, want 5:\n%s", len(lines), out)
	}
	// Uniform data: every bucket holds 20 samples.
	for _, l := range lines {
		if !strings.HasSuffix(l, " 20") {
			t.Fatalf("non-uniform bucket: %q", l)
		}
	}
}

func TestHistogramDegenerate(t *testing.T) {
	if NewRecorder().All().Histogram(0, 0) != "(empty)\n" {
		t.Fatal("empty histogram")
	}
	r := NewRecorder()
	r.Add(Sample{Total: 5}, 0)
	r.Add(Sample{Total: 5}, 1)
	out := r.All().Histogram(3, 10)
	if out == "" {
		t.Fatal("constant-value histogram empty")
	}
}

// TestRenderAnyDistribution: both renderers take any distribution a
// Recorder can hold, where max-min may exceed MaxInt64 and values may be
// negative, keep every bar within its width and count every value, and
// the top histogram edge saturates at MaxInt64 rather than wrapping.
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
		if vals[len(vals)-1] == math.MaxInt64 {
			hist := strings.Split(strings.TrimSpace(d.Histogram(10, 40)), "\n")
			if last := hist[len(hist)-1]; !strings.Contains(last, "-"+Us(math.MaxInt64)+" |") {
				t.Errorf("%v: top bucket %q does not end at %s", vals, last, Us(math.MaxInt64))
			}
		}
	}
}
