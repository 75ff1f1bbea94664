package stats

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestWindowedQuantileMatchesDistOnPartialWindow(t *testing.T) {
	w := NewWindowedQuantile(100)
	r := NewRecorder()
	for i, v := range []int64{50, 10, 90, 30, 70} {
		w.Observe(v)
		r.Add(Sample{Total: v}, int64(i))
	}
	for _, p := range []float64{0, 25, 50, 75, 99, 100} {
		if got, want := w.Quantile(p), r.All().Percentile(p); got != want {
			t.Errorf("Quantile(%v) = %d, want %d (Dist parity)", p, got, want)
		}
	}
	if w.Len() != 5 || w.Window() != 100 {
		t.Errorf("Len/Window = %d/%d", w.Len(), w.Window())
	}
}

// WindowedQuantile.Quantile selects instead of sorting, and must answer
// exactly as Dist.Percentile of the sorted window does, on partial and
// full (wrapped) windows.
func TestWindowedQuantileMatchesSortedPercentile(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	w := NewWindowedQuantile(128)
	for i := 0; i < 400; i++ {
		v := r.Int63n(10_000)
		if i%5 == 0 {
			v = 42 // duplicates
		}
		w.Observe(v)
		window := slices.Clone(w.ring[:w.Len()])
		slices.Sort(window)
		for _, p := range []float64{0, 0.1, 50, 95, 99, 99.9, 100} {
			if got, want := w.Quantile(p), (Dist{window}).Percentile(p); got != want {
				t.Fatalf("after %d samples: Quantile(%v) = %d, sorted window's Percentile %d", i+1, p, got, want)
			}
		}
	}
}

func TestWindowedQuantileSlides(t *testing.T) {
	w := NewWindowedQuantile(4)
	for v := int64(1); v <= 4; v++ {
		w.Observe(v * 10) // window: 10 20 30 40
	}
	if got := w.Quantile(100); got != 40 {
		t.Fatalf("max = %d", got)
	}
	// Two more observations evict 10 and 20: the window forgets them.
	w.Observe(100)
	w.Observe(5)
	if got := w.Quantile(100); got != 100 {
		t.Errorf("max after slide = %d, want 100", got)
	}
	if got := w.Quantile(0); got != 5 {
		t.Errorf("min after slide = %d, want 5 (10 and 20 evicted)", got)
	}
	if w.Len() != 4 {
		t.Errorf("Len = %d, want window size 4", w.Len())
	}
}

func TestWindowedQuantileP99Random(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := NewWindowedQuantile(500)
	var last []int64
	for i := 0; i < 2000; i++ {
		v := rng.Int63n(1_000_000)
		w.Observe(v)
		last = append(last, v)
	}
	last = last[len(last)-500:]
	sorted := append([]int64(nil), last...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	want := sorted[int(float64(len(sorted))*0.99)-1] // nearest rank of 99%
	if got := w.P99(); got != want {
		t.Errorf("P99 = %d, want %d over the last 500 samples", got, want)
	}
}

func TestWindowedQuantileEmptyAndReset(t *testing.T) {
	w := NewWindowedQuantile(8)
	if got := w.Quantile(99); got != 0 {
		t.Errorf("empty quantile = %d", got)
	}
	w.Observe(42)
	w.Reset()
	if w.Len() != 0 || w.Quantile(50) != 0 {
		t.Errorf("reset did not empty the window: len=%d", w.Len())
	}
}

func TestWindowedQuantileRejectsZeroSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size window accepted")
		}
	}()
	NewWindowedQuantile(0)
}
