package core

import (
	"fmt"

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
// adjusts the repair admission rate between the configured bounds. The
// rate is enforced by a sim.PacedBandwidth token lane layered on the
// spine — foreground transfers keep their FIFO access to the link while
// repair batches wait for tokens that refill at the controller's rate —
// and enqueued repair batches are split to token-sized transfers
// (ec.Reconstructor.NextUpTo) so one batch cannot monopolize the link in
// a single burst.

// RepairSLO configures the latency-SLO-aware repair rate controller
// (Config.RepairSLO). The zero value disables pacing: repair is admitted
// whenever the GC idle window allows, as before.
type RepairSLO struct {
	// TargetP99 is the foreground read p99 the controller defends,
	// measured over the sliding window; 0 disables pacing entirely.
	TargetP99 sim.Time
	// MinRateMBps floors the repair admission rate so repair always
	// makes progress — the no-starvation guarantee (default 1 MB/s).
	MinRateMBps float64
	// MaxRateMBps caps the admission rate (default: the spine's
	// CrossRackMBps — repair may use the whole link when foreground
	// latency permits).
	MaxRateMBps float64
	// Window is how many recent foreground reads the p99 sensor holds
	// (default 128).
	Window int
	// Interval is the controller's adjustment period (default 2ms).
	Interval sim.Time
}

// Enabled reports whether the controller is active.
func (s RepairSLO) Enabled() bool { return s.TargetP99 > 0 }

// withDefaults fills unset tuning fields from the cluster configuration.
func (s RepairSLO) withDefaults(crossRackMBps float64) RepairSLO {
	if s.MinRateMBps <= 0 {
		s.MinRateMBps = 1
	}
	if s.MaxRateMBps <= 0 {
		s.MaxRateMBps = crossRackMBps
	}
	if s.MaxRateMBps < s.MinRateMBps {
		s.MaxRateMBps = s.MinRateMBps
	}
	if s.Window <= 0 {
		s.Window = 128
	}
	if s.Interval <= 0 {
		s.Interval = 2 * sim.Millisecond
	}
	return s
}

// validate rejects contradictory controller settings; defaults are
// applied later, so only explicitly-set fields can conflict.
func (s RepairSLO) validate(racks int, crossRackMBps float64) error {
	if !s.Enabled() {
		return nil
	}
	if racks < 2 {
		return &FailureSpecError{Field: "RepairSLO", Index: racks,
			Reason: "pacing meters the cross-rack spine; it needs Racks > 1"}
	}
	if s.MinRateMBps < 0 || s.MaxRateMBps < 0 {
		return &FailureSpecError{Field: "RepairSLO", Index: 0,
			Reason: "repair rate bounds must be non-negative"}
	}
	if s.MinRateMBps > 0 && s.MaxRateMBps > 0 && s.MinRateMBps > s.MaxRateMBps {
		return &FailureSpecError{Field: "RepairSLO", Index: 0,
			Reason: "MinRateMBps exceeds MaxRateMBps"}
	}
	if s.MinRateMBps > crossRackMBps {
		// A floor above the spine's capacity can never back off below
		// what the link carries: the no-starvation guarantee would come
		// at the price of a permanently violated SLO.
		return &FailureSpecError{Field: "RepairSLO", Index: int(s.MinRateMBps),
			Reason: fmt.Sprintf("MinRateMBps exceeds the %g MB/s spine capacity (CrossRackMBps)", crossRackMBps)}
	}
	if s.Window < 0 || s.Interval < 0 {
		return &FailureSpecError{Field: "RepairSLO", Index: 0,
			Reason: "window and interval must be non-negative"}
	}
	return nil
}

// RatePoint is one entry of Result.RepairRateTimeline: the admission
// rate the controller set at a virtual-time instant.
type RatePoint struct {
	At   sim.Time `json:"at"`
	MBps float64  `json:"mbps"`
}

// AIMD tuning of the controller: additive probe per tick while the tail
// is under target, multiplicative backoff on a violated window.
const (
	pacerAdditiveMBps = 0.25
	pacerDecrease     = 0.25
)

// RepairPacer is the feedback controller instance wired into one run.
type RepairPacer struct {
	slo      RepairSLO // normalized (withDefaults applied)
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
	slo := cfg.RepairSLO.withDefaults(cfg.CrossRackMBps)
	p := &RepairPacer{
		slo:      slo,
		win:      stats.NewWindowedQuantile(slo.Window),
		pageSize: cfg.Geometry.PageSize,
		rateMBps: slo.MinRateMBps,
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
// inside [MinRateMBps, MaxRateMBps]. Each backoff resets the latency
// window, so one contention episode is punished once per window of fresh
// evidence instead of once per tick while stale samples drain — and the
// additive probe waits for the refilled window (half capacity) before
// trusting that the tail really is back under target. The probe also
// requires repair to actually be flowing (active): a healthy window
// with no repair traffic is no evidence that a higher rate is safe, and
// without the gate the rate would drift to the ceiling between failures
// and the next crash's repair would open at full blast — so while the
// pipeline is idle the rate decays back toward the floor instead.
func (p *RepairPacer) tick(now sim.Time, active bool) {
	p.ticks++
	old := p.rateMBps
	switch p99 := p.win.P99(); {
	case p.win.Len() > 0 && p99 > p.slo.TargetP99:
		p.violated++
		p.rateMBps *= pacerDecrease
		if p.rateMBps < p.slo.MinRateMBps {
			p.rateMBps = p.slo.MinRateMBps
		}
		p.win.Reset()
	case !active:
		p.rateMBps *= pacerDecrease
		if p.rateMBps < p.slo.MinRateMBps {
			p.rateMBps = p.slo.MinRateMBps
		}
	case p.win.Len() >= (p.slo.Window+1)/2:
		p.rateMBps += pacerAdditiveMBps
		if p.rateMBps > p.slo.MaxRateMBps {
			p.rateMBps = p.slo.MaxRateMBps
		}
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
	bytesPerTick := p.rateMBps * 1e6 * float64(p.slo.Interval) / float64(sim.Second)
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
		r.eng.ScheduleAfter(r.pacer.slo.Interval, labelPacedTick, r.pacer.tickEv)
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
