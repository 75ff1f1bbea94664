package stats

// WindowedQuantile tracks quantiles over a sliding window of the most
// recent observations: a fixed-capacity ring buffer of latency samples
// with nearest-rank quantile queries. It is the sensor of feedback
// controllers (the repair pacer reads the windowed p99 of foreground
// reads every tick), so it intentionally forgets — old samples fall out
// as new ones arrive, and the reported tail reflects only the recent
// window. Not safe for concurrent use; the simulation is single-threaded.
type WindowedQuantile struct {
	ring []int64
	next int
	full bool
	// scratch is reused across Quantile calls to avoid per-tick
	// allocation; the controller queries every few milliseconds of
	// virtual time.
	scratch []int64
}

// NewWindowedQuantile returns an empty window holding up to size samples.
func NewWindowedQuantile(size int) *WindowedQuantile {
	if size < 1 {
		panic("stats: window size must be positive")
	}
	return &WindowedQuantile{ring: make([]int64, size), scratch: make([]int64, 0, size)}
}

// Observe records one sample, evicting the oldest once the window is full.
func (w *WindowedQuantile) Observe(v int64) {
	w.ring[w.next] = v
	w.next++
	if w.next == len(w.ring) {
		w.next = 0
		w.full = true
	}
}

// Len returns the number of samples currently in the window.
func (w *WindowedQuantile) Len() int {
	if w.full {
		return len(w.ring)
	}
	return w.next
}

// Window returns the configured capacity.
func (w *WindowedQuantile) Window() int { return len(w.ring) }

// Reset empties the window without releasing its buffer.
func (w *WindowedQuantile) Reset() {
	w.next = 0
	w.full = false
}

// Quantile returns the p-th percentile (0 < p <= 100) of the window by
// nearest rank, matching Dist.Percentile of the sorted window. It
// selects the rank in a scratch copy instead of sorting it. An empty
// window returns 0.
func (w *WindowedQuantile) Quantile(p float64) int64 {
	n := w.Len()
	if n == 0 {
		return 0
	}
	w.scratch = append(w.scratch[:0], w.ring[:n]...)
	return Select(w.scratch, Rank(p, n))
}

// P99 is the quantile the repair pacer compares against its SLO target.
func (w *WindowedQuantile) P99() int64 { return w.Quantile(99) }
