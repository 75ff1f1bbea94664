// Package predictor implements RackBlox's two predictors: the
// sliding-window return-latency predictor of §3.4 (used as Predict_time in
// coordinated I/O scheduling) and the exponential-smoothing idle-time
// predictor of §3.5.1 (used to trigger background GC).
package predictor

import "rackblox/internal/sim"

// DefaultWindow is the paper's window size: "the average network latency
// of the 100 most recent incoming packets" — small enough to react to
// congestion, large enough to smooth outliers.
const DefaultWindow = 100

// Window is a fixed-size sliding window that reports the mean of the most
// recent observations.
type Window struct {
	buf  []sim.Time
	next int
	n    int
	sum  int64
}

// NewWindow creates a sliding window of the given capacity.
func NewWindow(size int) *Window {
	if size <= 0 {
		size = DefaultWindow
	}
	return &Window{buf: make([]sim.Time, size)}
}

// Observe adds one sample, evicting the oldest when full.
func (w *Window) Observe(v sim.Time) {
	if w.n == len(w.buf) {
		w.sum -= int64(w.buf[w.next])
	} else {
		w.n++
	}
	w.buf[w.next] = v
	w.sum += int64(v)
	w.next = (w.next + 1) % len(w.buf)
}

// Mean returns the window mean, or 0 before any observation.
func (w *Window) Mean() sim.Time {
	if w.n == 0 {
		return 0
	}
	return sim.Time(w.sum / int64(w.n))
}

// Len returns the number of held samples.
func (w *Window) Len() int { return w.n }

// Latency predicts the time to return a response to the client. Separate
// windows are kept for reads and writes "as their outgoing packet sizes
// are different" (§3.4). It observes *incoming* packet latencies, which
// "better capture the factors causing network delays".
type Latency struct {
	read  *Window
	write *Window
}

// NewLatency builds a predictor with the given window size per class.
func NewLatency(window int) *Latency {
	return &Latency{read: NewWindow(window), write: NewWindow(window)}
}

// Observe records the measured inbound network latency of one request.
func (p *Latency) Observe(write bool, lat sim.Time) {
	if write {
		p.write.Observe(lat)
	} else {
		p.read.Observe(lat)
	}
}

// Predict returns the expected return-path latency for the request class.
// Before any same-class observation it falls back to the other class, then
// to zero — the scheduler degrades to network-oblivious behaviour.
func (p *Latency) Predict(write bool) sim.Time {
	primary, other := p.read, p.write
	if write {
		primary, other = p.write, p.read
	}
	if primary.Len() > 0 {
		return primary.Mean()
	}
	return other.Mean()
}

// Accuracy summarizes predictor quality for the §3.4 validation: the
// fraction of predictions within tolNS of the true value.
type Accuracy struct {
	total  int
	within int
	// WorstRel tracks the largest relative error observed.
	WorstRel float64
}

// Record compares one prediction with the observed truth.
func (a *Accuracy) Record(predicted, actual sim.Time, tolNS sim.Time) {
	a.total++
	diff := predicted - actual
	if diff < 0 {
		diff = -diff
	}
	if diff <= tolNS {
		a.within++
	}
	if actual > 0 {
		rel := float64(diff) / float64(actual)
		if rel > a.WorstRel {
			a.WorstRel = rel
		}
	}
}

// HitRate returns the fraction of predictions within tolerance.
func (a *Accuracy) HitRate() float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.within) / float64(a.total)
}

// Total returns the number of recorded comparisons.
func (a *Accuracy) Total() int { return a.total }

// DefaultAlpha is the exponential smoothing parameter of §3.5.1.
const DefaultAlpha = 0.5

// DefaultIdleThreshold is the predicted-idle threshold beyond which
// background GC runs (30 ms by default).
const DefaultIdleThreshold = 30 * sim.Millisecond

// Idle predicts the next idle interval of a vSSD from the history of
// inter-request gaps: T_i = alpha*T_real(i-1) + (1-alpha)*T_pred(i-1).
type Idle struct {
	alpha     float64
	threshold sim.Time
	pred      float64
	lastReq   sim.Time
	started   bool
}

// NewIdle builds an idle predictor; zero arguments select the defaults.
func NewIdle(alpha float64, threshold sim.Time) *Idle {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultAlpha
	}
	if threshold <= 0 {
		threshold = DefaultIdleThreshold
	}
	return &Idle{alpha: alpha, threshold: threshold}
}

// OnRequest folds in the observed gap since the previous request.
func (p *Idle) OnRequest(now sim.Time) {
	if p.started {
		real := float64(now - p.lastReq)
		p.pred = float64(p.alpha*real) + float64((1-p.alpha)*p.pred)
	}
	p.lastReq = now
	p.started = true
}

// Predicted returns the current idle-time estimate.
func (p *Idle) Predicted() sim.Time { return sim.Time(p.pred) }

// ShouldBackgroundGC reports whether the predicted idle interval exceeds
// the threshold, i.e. the device expects enough quiet time for GC.
func (p *Idle) ShouldBackgroundGC() bool {
	return p.started && sim.Time(p.pred) >= p.threshold
}
