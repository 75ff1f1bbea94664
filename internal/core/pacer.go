package core

import (
	"rackblox/internal/sim"
	"rackblox/internal/stats"
	"rackblox/internal/trace"
)

// SLO-aware spine repair pacing. The ROADMAP's last open co-design loop:
// background reconstruction shares the cross-rack spine with foreground
// traffic, so an aggressive repair blows up the foreground read tail
// while a timid one stretches the window of reduced redundancy. The
// RepairPacer closes the loop with feedback: a windowed quantile tracker
// observes every completed foreground read, a periodic tick compares the
// windowed p99 against the configured SLO target, and an AIMD rule
// adjusts the repair admission rate between a fixed 1 MB/s floor and the
// spine's capacity. The rate is enforced by a sim.PacedBandwidth token
// lane layered on the spine — foreground transfers keep their FIFO
// access to the link while repair batches wait for tokens that refill
// at the controller's rate — and enqueued repair batches are split to
// token-sized transfers (ec.Reconstructor.NextUpTo) so one batch cannot
// monopolize the link in a single burst.

// RepairSLO configures the latency-SLO-aware repair rate controller
// (Config.RepairSLO). The zero value disables pacing: repair is admitted
// whenever the GC idle window allows, as before.
type RepairSLO struct {
	// TargetP99 is the foreground read p99 the controller defends,
	// measured over the sliding window; 0 disables pacing entirely.
	TargetP99 sim.Time
}

// Enabled reports whether the controller is active.
func (s RepairSLO) Enabled() bool { return s.TargetP99 > 0 }

// validate rejects pacing on a cluster without a spine to pace.
func (s RepairSLO) validate(racks int) error {
	if s.Enabled() && racks < 2 {
		return &FailureSpecError{Field: "RepairSLO", Index: racks,
			Reason: "pacing meters the cross-rack spine; it needs Racks > 1"}
	}
	return nil
}

// RatePoint is one entry of Result.RepairRateTimeline: the admission
// rate the controller set at a virtual-time instant.
type RatePoint struct {
	At   sim.Time `json:"at"`
	MBps float64  `json:"mbps"`
}

// Fixed tuning of the controller: the admission rate's floor, which
// guarantees repair always makes progress (no starvation), the p99
// sensor's window of recent foreground reads, the adjustment period, and
// the AIMD steps — an additive probe per tick while the tail is under
// target, a multiplicative backoff on a violated window. The rate's
// ceiling is the spine's capacity (Config.CrossRackMBps): repair may use
// the whole link when foreground latency permits.
const (
	pacerMinRateMBps  = 1
	pacerWindow       = 128
	pacerInterval     = 2 * sim.Millisecond
	pacerAdditiveMBps = 0.25
	pacerDecrease     = 0.25
)

// RepairPacer is the feedback controller instance wired into one run.
type RepairPacer struct {
	target   sim.Time // RepairSLO.TargetP99
	maxMBps  float64  // the spine's capacity, at least the floor
	win      *stats.WindowedQuantile
	lane     *sim.PacedBandwidth
	pageSize int
	rateMBps float64
	ticks    int
	violated int
	timeline []RatePoint
	// tickEv is the controller's periodic tick, bound once.
	tickEv sim.EventFunc
}

// newRepairPacer builds the controller and its token lane on the spine.
// The rate starts at the floor: repair ramps up additively while the
// foreground tail stays under target, rather than opening at full blast
// and violating the SLO before the first feedback lands.
func newRepairPacer(eng *sim.Engine, spine *sim.Bandwidth, cfg *Config) *RepairPacer {
	p := &RepairPacer{
		target:   cfg.RepairSLO.TargetP99,
		maxMBps:  max(cfg.CrossRackMBps, pacerMinRateMBps),
		win:      stats.NewWindowedQuantile(pacerWindow),
		pageSize: cfg.Geometry.PageSize,
		rateMBps: pacerMinRateMBps,
	}
	// The bucket holds one full repair batch: enough credit to admit the
	// largest claim after an idle stretch, small enough that a burst
	// cannot occupy the spine for more than one batch's worth.
	burst := float64(repairBatchStripes * cfg.Geometry.PageSize)
	p.lane = sim.NewPacedBandwidth(eng, spine, p.rateMBps*1e6, burst)
	p.timeline = append(p.timeline, RatePoint{At: 0, MBps: p.rateMBps})
	return p
}

// observeRead feeds one completed foreground read latency to the sensor.
func (p *RepairPacer) observeRead(total sim.Time) { p.win.Observe(total) }

// tick runs one AIMD adjustment: back off multiplicatively when the
// windowed p99 violates the target, probe additively otherwise, always
// between the 1 MB/s floor and the spine's capacity. Each backoff
// resets the latency window, so one contention episode is punished once
// per window of fresh evidence instead of once per tick while stale
// samples drain — and the additive probe waits for the refilled window
// (half capacity) before trusting that the tail really is back under
// target. The probe also requires repair to actually be flowing
// (active): a healthy window with no repair traffic is no evidence that
// a higher rate is safe, and without the gate the rate would drift to
// the ceiling between failures and the next crash's repair would open
// at full blast — so while the pipeline is idle the rate decays back
// toward the floor instead.
func (p *RepairPacer) tick(now sim.Time, active bool) {
	p.ticks++
	old := p.rateMBps
	switch p99 := p.win.P99(); {
	case p.win.Len() > 0 && p99 > p.target:
		p.violated++
		p.rateMBps = max(p.rateMBps*pacerDecrease, pacerMinRateMBps)
		p.win.Reset()
	case !active:
		p.rateMBps = max(p.rateMBps*pacerDecrease, pacerMinRateMBps)
	case p.win.Len() >= (pacerWindow+1)/2:
		p.rateMBps = min(p.rateMBps+pacerAdditiveMBps, p.maxMBps)
	}
	if p.rateMBps != old {
		p.lane.SetRate(p.rateMBps * 1e6)
		p.timeline = append(p.timeline, RatePoint{At: now, MBps: p.rateMBps})
	}
}

// batchFanout is the spine fan-out a claim is sized for: one granted
// batch moves up to one batch transfer per remote source, so the claim
// is cut to keep the whole fanned-out burst — not just the charged
// chunk volume — inside roughly one controller interval. k-1 remote
// sources is the worst case for the small RS codes the experiments run;
// settle() trues up the token accounting afterwards either way, this
// constant only bounds the instantaneous burst a foreground transfer
// can queue behind.
const batchFanout = 4

// batchStripes is the token-sized claim limit: the stripes whose
// fanned-out spine bytes one controller interval refills.
func (p *RepairPacer) batchStripes() int {
	bytesPerTick := p.rateMBps * 1e6 * float64(pacerInterval) / float64(sim.Second)
	n := int(bytesPerTick) / (p.pageSize * batchFanout)
	if n < 1 {
		n = 1
	}
	if n > repairBatchStripes {
		n = repairBatchStripes
	}
	return n
}

// admit gates one claimed repair batch through the token lane; run fires
// once the tokens mature (FIFO after earlier admissions).
func (p *RepairPacer) admit(bytes int64, run sim.Handler) {
	p.lane.AdmitHandler(bytes, run)
}

// settle reconciles a granted batch's token charge against the spine
// bytes it actually moved. The charge at admission is the rebuilt chunk
// volume — the cross-rack fan-out (one batch transfer per remote
// source) is only known once the sources are picked — so the difference
// is settled here as token debt or refund, keeping the long-run spine
// repair byte rate bounded by the controller's rate as RepairSLO
// documents, not off by the data-dependent source fan-out.
func (p *RepairPacer) settle(charged, actualSpine int64) {
	p.lane.Consume(actualSpine - charged)
}

// violationFraction is the fraction of controller ticks whose windowed
// p99 exceeded the target (Result.SLOViolationFraction).
func (p *RepairPacer) violationFraction() float64 {
	if p.ticks == 0 {
		return 0
	}
	return float64(p.violated) / float64(p.ticks)
}

// pacerTick runs one controller adjustment and re-arms itself while the
// run is issuing or repair work remains anywhere in the pipeline.
func (r *Rack) pacerTick() {
	now := r.eng.Now()
	active := r.repairActive()
	before := len(r.pacer.timeline)
	r.pacer.tick(now, active)
	if len(r.pacer.timeline) > before {
		// The AIMD controller moved the admission rate: a control-plane
		// moment for the flight recorder.
		r.tracer.Instant("pacer", "rate_change", now,
			trace.Int("rate_kbps", int64(r.pacer.rateMBps*1000)))
	}
	if now < r.stopIssuing || active {
		r.eng.ScheduleAfter(pacerInterval, labelPacedTick, r.pacer.tickEv)
	}
}

// repairActive reports whether any repair work is queued, admitted, or
// in flight.
func (r *Rack) repairActive() bool {
	if r.pacer != nil && r.pacer.lane.Queued() > 0 {
		return true
	}
	for _, g := range r.groups {
		if g.repairInFlight || g.recon.Pending() > 0 {
			return true
		}
	}
	return false
}
