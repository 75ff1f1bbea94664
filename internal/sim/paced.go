package sim

// PacedBandwidth is a rate-limited admission lane layered over a shared
// Bandwidth link. Foreground traffic keeps using the link directly and
// retains its FIFO position; background (repair) traffic must first draw
// tokens from a bucket that refills at a controller-settable rate, so its
// aggregate admission rate — and therefore the fraction of the shared
// link it can occupy — is bounded even while the link itself has spare
// capacity. Admissions are granted FIFO; SetRate retunes the refill rate
// mid-flight (the feedback knob of the repair pacer).
type PacedBandwidth struct {
	eng  *Engine
	link *Bandwidth
	// rate is the token refill rate in bytes per second; burst caps the
	// bucket so an idle lane cannot bank unbounded credit.
	rate  float64
	burst float64
	// tokens may go negative: an admission larger than the remaining
	// credit is granted once the bucket fills and pays the difference
	// back over time, so oversized requests make progress instead of
	// starving.
	tokens float64
	last   Time
	queue  []pacedGrant
	// wake invalidates scheduled refill wakeups after a SetRate, which
	// changes when the head admission's tokens mature.
	wake    uint64
	pumping bool
	wakes   Pool[pacedWake]
}

// labelPacedWake counts the wakeups that retry the head admission.
var labelPacedWake = NewLabel("paced.wake")

type pacedGrant struct {
	bytes int64
	grant Handler
}

// pacedWake is the pooled wakeup of one refill wait; gen names the wait
// it belongs to, so a wakeup a later SetRate superseded does nothing.
type pacedWake struct {
	p   *PacedBandwidth
	gen uint64
}

func (w *pacedWake) Fire(Time) {
	p, gen := w.p, w.gen
	*w = pacedWake{}
	p.wakes.Put(w)
	if gen == p.wake {
		p.pump()
	}
}

// NewPacedBandwidth returns a paced lane over link with the given token
// refill rate and bucket capacity, both in bytes. The bucket starts full.
func NewPacedBandwidth(eng *Engine, link *Bandwidth, rateBytesPerSec, burstBytes float64) *PacedBandwidth {
	if rateBytesPerSec <= 0 {
		panic("sim: paced bandwidth rate must be positive")
	}
	if burstBytes <= 0 {
		panic("sim: paced bandwidth burst must be positive")
	}
	return &PacedBandwidth{
		eng:    eng,
		link:   link,
		rate:   rateBytesPerSec,
		burst:  burstBytes,
		tokens: burstBytes,
	}
}

// Rate returns the current token refill rate in bytes per second.
func (p *PacedBandwidth) Rate() float64 { return p.rate }

// Queued returns the admissions waiting for tokens.
func (p *PacedBandwidth) Queued() int { return len(p.queue) }

// SetRate retunes the token refill rate. Credit accrued so far is settled
// at the old rate first; a pending wakeup for the head admission is
// recomputed under the new rate.
func (p *PacedBandwidth) SetRate(rateBytesPerSec float64) {
	if rateBytesPerSec <= 0 {
		panic("sim: paced bandwidth rate must be positive")
	}
	p.refill(p.eng.Now())
	p.rate = rateBytesPerSec
	p.wake++ // drop the stale wakeup; pump schedules a fresh one
	p.pump()
}

// Admit queues one admission of bytes and calls grant when the bucket
// has matured enough tokens, FIFO after earlier admissions. The grant
// callback typically starts the actual link transfer (or device work)
// the tokens gate.
func (p *PacedBandwidth) Admit(bytes int64, grant func(now Time)) {
	if grant == nil {
		panic("sim: nil paced grant")
	}
	p.AdmitHandler(bytes, EventFunc(grant))
}

// AdmitHandler is Admit with the grant as a Handler, which a hot path
// passes as a pooled record so an admission allocates nothing. The grant
// fires inside the call that matures its tokens, not as a scheduled
// event.
func (p *PacedBandwidth) AdmitHandler(bytes int64, grant Handler) {
	if grant == nil {
		panic("sim: nil paced grant")
	}
	if bytes < 0 {
		panic("sim: negative paced admission")
	}
	p.queue = append(p.queue, pacedGrant{bytes: bytes, grant: grant})
	p.pump()
}

// Consume settles post-grant byte usage against the bucket: a positive
// delta (the granted operation moved more bytes than its admission
// charged — e.g. a repair batch that fanned out to several remote
// sources) pushes the bucket into debt that refill repays before the
// next grant matures, and a negative delta refunds credit for bytes the
// operation never moved. Either way the long-run admitted byte rate
// converges to the configured rate. The queue is re-pumped so a refund
// can mature the head immediately.
func (p *PacedBandwidth) Consume(deltaBytes int64) {
	p.refill(p.eng.Now())
	p.tokens -= float64(deltaBytes)
	if p.tokens > p.burst {
		p.tokens = p.burst
	}
	p.pump()
}

// refill matures tokens up to now at the current rate, capped at burst.
func (p *PacedBandwidth) refill(now Time) {
	if now > p.last {
		p.tokens += p.rate * float64(now-p.last) / float64(Second)
		if p.tokens > p.burst {
			p.tokens = p.burst
		}
		p.last = now
	}
}

// pump grants queued admissions while tokens last, then schedules one
// wakeup for the instant the head admission's tokens mature. A grant
// callback may re-enter Admit (or SetRate) — the pumping flag makes the
// loop non-reentrant so no admission is processed twice.
func (p *PacedBandwidth) pump() {
	if p.pumping {
		return
	}
	p.pumping = true
	defer func() { p.pumping = false }()
	for len(p.queue) > 0 {
		now := p.eng.Now()
		p.refill(now)
		head := p.queue[0]
		// An admission larger than the bucket is granted at full burst
		// and drives tokens negative (paid back by refill) — otherwise
		// it could never be granted at all.
		need := float64(head.bytes)
		if need > p.burst {
			need = p.burst
		}
		if p.tokens < need {
			wait := Time((need-p.tokens)/p.rate*float64(Second)) + 1
			p.wake++
			w := p.wakes.Get()
			w.p, w.gen = p, p.wake
			p.eng.ScheduleAfter(wait, labelPacedWake, w)
			return
		}
		p.tokens -= float64(head.bytes)
		// Pop by shifting down: the queue holds a few admissions at most,
		// and its backing array is reused instead of sliding off.
		n := copy(p.queue, p.queue[1:])
		p.queue[n] = pacedGrant{}
		p.queue = p.queue[:n]
		head.grant.Fire(now)
	}
}
