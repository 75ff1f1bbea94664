package core

import (
	"slices"

	"rackblox/internal/ec"
	"rackblox/internal/sim"
	"rackblox/internal/stats"
	"rackblox/internal/switchsim"
	"rackblox/internal/trace"
)

// Result is the outcome of one rack run.
type Result struct {
	System System
	Config Config
	// Recorder holds every measured request with latency breakdowns.
	Recorder *stats.Recorder
	// Switch counts data-plane events, including read redirections.
	Switch switchsim.Stats

	// GC accounting aggregated over all instances.
	GCEvents     int
	GCDelayed    int
	BGGCEvents   int
	ForcedGCs    int64
	GCOpsSent    int64
	GCOpRetries  int64
	DelayedByCtl int64

	// Failure handling (§3.7).
	Failovers    int64
	LostRequests int64

	// Datapath counters.
	Bounces      int64
	CacheHits    int64
	StaleRetries int64
	SWRedirects  int64

	// Erasure-coding counters. DegradedReads counts reads served by
	// reconstructing from k chunks instead of the home holder;
	// ECSubWrites counts the fan-out sub-writes (1 data + m parity per
	// logical write); RepairedStripes/RepairPending/RepairDelayed
	// account the background reconstructor and its GC-idle-window gate.
	DegradedReads      int64
	UnrecoverableReads int64
	ECSubWrites        int64
	ECRetransmits      int64
	LostReads          int64
	RepairedStripes    int64
	RepairPending      int64
	RepairDelayed      int64

	// Local-parity (LRC) counters, all zero outside the LocalParityCoded
	// family. LocalRepairStripes counts stripes rebuilt by the zero-spine
	// rack-local XOR plan and AggregatedRepairStripes those rebuilt by
	// the global plan with per-rack aggregation (one shipped batch per
	// remote rack instead of one per survivor); LocalDegradedReads counts
	// degraded reads served entirely inside the coordinator's rack.
	LocalRepairStripes      int64
	AggregatedRepairStripes int64
	LocalDegradedReads      int64

	// Multi-rack cluster counters. CrossRackRepairBytes is the chunk
	// bytes repair traffic (degraded-read fetches plus background
	// reconstruction) moved over the spine; its average rate is bounded
	// by Config.CrossRackMBps because transfers serialize on the link.
	// UnrecoverableStripes counts stripes whose surviving chunk holders
	// dropped below k — actual data loss, the figure compact placement
	// shows under a whole-rack failure and spread placement avoids.
	CrossRackRepairBytes int64
	CrossRackFetches     int64
	SpineUtilization     float64
	UnrecoverableStripes int64
	// ForegroundCrossRackBytes is the client/stripe traffic (handoffs,
	// cross-rack requests and responses, replication messages) metered
	// on the same spine link — reported separately from repair bytes so
	// the two contending classes can be compared. SpineUtilization
	// covers both.
	ForegroundCrossRackBytes int64
	// CrossRackRepairBytesOffered and ForegroundCrossRackBytesOffered
	// count spine bytes at enqueue time — the old (dishonest) meaning of
	// the delivered counters above, kept so the two can be reconciled:
	// delivered <= offered always, equal once the simulation drains
	// every in-flight transfer.
	CrossRackRepairBytesOffered     int64
	ForegroundCrossRackBytesOffered int64

	// Recovery-lifecycle counters (fail -> repair -> re-integrate ->
	// revive). ReintegratedStripes counts stripes whose rebuilt chunks
	// were re-registered with a replacement holder in the switch stripe
	// tables; DegradedReadsPostRepair counts degraded reads served for
	// a crashed-and-re-integrated holder after its group finished
	// healing, excluding steering legitimately caused by the
	// replacement itself collecting or being unreachable — zero when
	// the loop closes correctly; ToRRevivals counts dark switches
	// brought back by Rack.ReviveToR. ServerRevivals counts crashed
	// servers brought back by a ReviveServer scenario event
	// (Rack.ReviveServer), and RestoredHolders the chunk holders
	// whose catch-up repair landed the full chunk set back on the
	// revived original server, re-registered under their own ids.
	ReintegratedStripes     int64
	DegradedReadsPostRepair int64
	ToRRevivals             int64
	ServerRevivals          int64
	RestoredHolders         int64

	// SLO-aware repair pacing (Config.RepairSLO). RepairCompletionTime
	// is the instant the last repair batch finished (0 when no repair
	// ran) — with pacing on, the cost side of the latency/repair-time
	// trade-off. SLOViolationFraction is the fraction of controller
	// ticks whose windowed foreground read p99 exceeded the SLO target
	// (0 when pacing is off). RepairRateTimeline records every admission
	// rate the AIMD controller set, starting with the initial rate at
	// time 0.
	RepairCompletionTime sim.Time
	SLOViolationFraction float64
	RepairRateTimeline   []RatePoint

	// WriteAmp is the mean write amplification across instances.
	WriteAmp float64
	// SimulatedTime is the virtual time the run covered.
	SimulatedTime sim.Time
	// Events is the number of discrete events processed.
	Events uint64
	// EventsByHandler breaks Events down by handler label ("resource",
	// "paced.wake", "switch.pipeline", "scenario", "other") — a cheap
	// profile of where the engine's work went.
	EventsByHandler map[string]uint64 `json:",omitempty"`

	// Flight recorder output (Config.Trace / Config.MetricsInterval).
	// All three are nil/empty unless explicitly enabled; the recorder is
	// observer-only, so enabling it never changes any other field.
	//
	// Trace holds the retained request spans (head-sampled plus the
	// slowest-read tail reservoir), control-plane instants, and GC
	// windows; WriteChromeTrace renders it for Perfetto.
	Trace *trace.Trace `json:",omitempty"`
	// Timelines is the periodic metrics sampled every MetricsInterval.
	Timelines *stats.TimeSeries `json:",omitempty"`
	// TailAttribution is the per-phase latency share of the slowest 1%
	// of measured reads; fractions sum to ~1.
	TailAttribution []trace.PhaseShare `json:",omitempty"`
}

// Run executes one configured experiment end to end.
func Run(cfg Config) (*Result, error) {
	r, err := NewRack(cfg)
	if err != nil {
		return nil, err
	}
	return r.Run(), nil
}

// Run drives the rack: clients issue during [0, Warmup+Duration), GC
// monitors patrol, then the event queue drains outstanding work. The
// counters already sit in the Result; Run adds the totals derived from
// the recorder, the switches, the spine, the reconstructors and the
// engine.
func (r *Rack) Run() *Result {
	r.stopIssuing = r.cfg.Warmup + r.cfg.Duration
	r.startMetrics()
	r.startClients()
	r.startGCMonitors()
	r.scheduleScenario()
	if r.pacer != nil {
		r.eng.ScheduleAfter(pacerInterval, labelPacedTick, r.pacer.tickEv)
	}
	r.eng.Run()
	r.rec.Seal()

	res := r.res
	res.Recorder = r.rec
	for _, tor := range r.tors {
		res.Switch.Add(tor.Stats())
	}
	res.SimulatedTime = r.eng.Now()
	res.Events = r.eng.Processed()
	res.EventsByHandler = r.eng.ProcessedBy()
	if r.tracer != nil {
		res.Trace = r.tracer.Collect()
		res.TailAttribution = res.Trace.TailAttribution(0.01)
	}
	res.Timelines = r.metrics
	res.CrossRackRepairBytes = r.spine.crossRepairBytes
	res.CrossRackRepairBytesOffered = r.spine.crossRepairOffered
	res.CrossRackFetches = r.spine.crossFetches
	res.SpineUtilization = r.spine.Utilization()
	res.ForegroundCrossRackBytes = r.spine.foregroundBytes
	res.ForegroundCrossRackBytesOffered = r.spine.foregroundOffered
	if r.pacer != nil {
		res.SLOViolationFraction = r.pacer.violationFraction()
		// The pacer never appends after the engine drains, so the
		// Result shares its timeline, clipped so that an append by a
		// caller copies instead of writing into the pacer's spare
		// capacity.
		res.RepairRateTimeline = slices.Clip(r.pacer.timeline)
	}
	for _, g := range r.groups {
		res.RepairedStripes += int64(g.recon.RepairedStripes())
		res.RepairPending += int64(g.recon.Pending())
		res.RepairDelayed += int64(g.recon.DelayCount())
		// A stripe with fewer than k effectively-alive global chunks is
		// data loss: every global member holds one chunk of every
		// stripe. A crashed member whose local plan (LRC: the rest of its
		// rack survives) rebuilds it still counts; a dark ToR loses no
		// data, so only crashes count here.
		for i, m := range g.insts {
			g.members[i] = ec.Member{Rack: m.server.rackIdx, Down: m.server.failed}
		}
		alive := 0
		for i := range g.spec.Width() {
			g.spec.Plan(&g.plan, g.members, i, i)
			if !g.members[i].Down || g.plan.Local {
				alive++
			}
		}
		if alive < g.spec.K {
			res.UnrecoverableStripes += int64(g.usedStripes)
		}
	}
	var wa float64
	for _, inst := range r.insts {
		wa += inst.v.FTL.WriteAmplification()
	}
	res.WriteAmp = wa / float64(len(r.insts))
	return res
}
