// Package rackblox is a simulation-backed reproduction of RackBlox, the
// software-defined rack-scale storage system with network-storage
// co-design from SOSP 2023.
//
// The library simulates a full rack — clients, a programmable ToR switch,
// storage servers with open-channel SSDs, and replicated virtual SSDs —
// and implements the paper's three mechanisms on top:
//
//   - coordinated I/O scheduling: the switch measures network latency with
//     in-band telemetry and the storage scheduler orders requests by
//     end-to-end urgency (Net_time + Storage_time + Predict_time);
//   - coordinated garbage collection: the switch tracks per-vSSD GC state,
//     redirects reads to the idle replica, delays soft GC requests while
//     the replica collects, and lets devices run background GC in idle
//     windows;
//   - rack-scale wear leveling: a two-level balancer equalizes SSD wear
//     inside each server and across the rack.
//
// Beyond the paper, the rack supports three redundancy backends
// selected by Config.Redundancy: the paper's 2-way Hermes replication
// (RedundancyReplication, the default), rack-aware RS(k,m) erasure
// coding (RedundancyEC), and its repair-efficient local-parity variant
// (RedundancyLRC, below). Under erasure coding every volume is striped
// over k data + m parity chunk holders on distinct servers; the ToR
// switch steers reads for a collecting or failed chunk holder to a
// survivor, which reconstructs from any k chunks (a degraded read), and
// a background reconstructor repairs lost chunks only in switch-observed
// GC idle windows. The replication-vs-EC comparison is Experiment
// ("figec", ...), and the RS codec itself is exported as ECCodec.
//
// # Multi-rack clusters
//
// Setting Config.Racks > 1 composes that many rack fault domains under a
// simulated spine/aggregation link (the Cluster topology layer): every
// rack gets its own ToR switch, cross-rack packets pay
// Config.CrossRackLatency, and bulk repair traffic is metered on a
// shared link of Config.CrossRackMBps — transfers serialize, so repair
// throughput can never exceed the configured cross-rack bandwidth, which
// Result.CrossRackRepairBytes and Result.SpineUtilization expose as
// first-class measurements. Config.Placement then chooses how
// erasure-coded stripes map onto the fault domains: PlacementCompact
// confines each stripe group to one rack (the original layout), while
// PlacementSpread distributes every stripe across racks with at most m
// chunks per rack, so a whole-rack or ToR failure leaves every stripe
// recoverable. Degraded reads and chunk repair select sources
// rack-local-first and spill onto the metered spine only when a rack
// cannot supply k survivors; reads whose entire home rack is dark are
// handed between ToR switches (per-rack stripe tables with inter-switch
// handoff). Failures inject at three scopes, each a Config.Scenario
// event: FailServer (one storage server), FailRack (a whole-rack crash),
// and FailToR (a dark switch: servers alive, rack unreachable, no data
// lost); duplicate or out-of-range targets are rejected with a typed
// *core.FailureSpecError. The compact-vs-spread comparison under
// rack failure is Experiment("figmr", ...), also reachable as
// rackbench -exp figmr with -racks and -crossbw flags.
//
// # Recovery lifecycle
//
// The cluster heals all the way back, not just survives. When the
// background reconstructor finishes rebuilding a lost holder's chunks
// onto its adopting member, the adopter is re-registered as the
// holder's replacement in every involved ToR's stripe table
// (switchsim.ReplaceStripeMember): the failover and remote-dead entries
// are cleared and traffic still addressed to the dead id is rewritten
// and served directly, so post-repair reads stop paying the degraded
// k-fetch reconstruction cost. Result.ReintegratedStripes counts the
// re-registered stripes and Result.DegradedReadsPostRepair — zero when
// the loop closes correctly — counts stragglers that still degraded
// afterwards. A failed ToR can likewise be revived: the switch returns
// with blank SRAM, the control plane replays its tables from surviving
// state, and sibling ToRs drop the remote-dead marks and failover
// rewrites they held for the rack. Foreground (non-repair) cross-rack
// traffic — client requests, responses, handoffs, replication messages
// — is metered on the same spine link as repair transfers, so the two
// classes contend for bandwidth realistically;
// Result.ForegroundCrossRackBytes reports it separately from
// Result.CrossRackRepairBytes. The fail -> repair -> re-integrate ->
// revive timeline is Experiment("figrl", ...), also reachable as
// rackbench -exp figrl, which shows degraded-read latency returning to
// the healthy baseline after re-integration.
//
// # Scenario timelines
//
// Failure injection is a typed, ordered event schedule: Config.Scenario
// is a slice of Events — FailServer, FailRack, FailToR, ReviveServer,
// ReviveToR — each carrying its own instant, validated as a whole
// (ordering, index ranges, no double-crash of a down server,
// revive-before-fail rejected, same-instant rack+ToR double-booking
// rejected) with typed *FailureSpecError rejections, and executed by
// the cluster's event driver:
//
//	cfg := rackblox.DefaultConfig()
//	cfg.Scenario = []rackblox.Event{
//		rackblox.FailServer(0, 120_000_000),   // crash at 120ms
//		rackblox.ReviveServer(0, 300_000_000), // return blank at 300ms
//		rackblox.FailServer(0, 650_000_000),   // crash again at 650ms
//	}
//
// Scenario is the only failure-injection surface. Because every event
// carries its own instant, one timeline can hold repeated fail/heal
// cycles and server revival. A revived server returns with blank DRAM and flash, so the
// recovery is earned: every erasure-coded chunk holder it hosted is
// rebuilt from scratch by the metered reconstructor (catch-up repair,
// contending for the same spine bandwidth as any other repair) and
// re-registered under its original id when the last chunk lands
// (switchsim.RestoreStripeMember); under replication the survivor
// re-admits the returned peer to its Hermes group (AddPeer), restoring
// the full write quorum. Result.ServerRevivals and
// Result.RestoredHolders count the lifecycle. The fail -> revive -> catch-up -> fail-again cycle is
// Experiment("figsc", ...), also reachable as rackbench -exp figsc, and
// rackbench -scenario "failrack:0@300ms,revive-server:2@600ms" runs a
// one-off custom timeline.
//
// # SLO-aware repair pacing
//
// Repair traffic and foreground traffic contend for the same spine, so
// on a scarce link an unpaced reconstruction blows up the foreground
// read tail for as long as it runs. Config.RepairSLO closes this last
// co-design loop with feedback control:
//
//	cfg.RepairSLO = rackblox.RepairSLO{
//		TargetP99:   5_000_000, // defend a 5ms foreground read p99
//		MinRateMBps: 1,         // repair never starves
//		MaxRateMBps: 80,        // may use the whole spine when latency permits
//	}
//
// A windowed quantile sensor (stats.WindowedQuantile) observes every
// completed foreground read; each controller tick compares the windowed
// p99 against TargetP99 and adjusts the repair admission rate with AIMD
// — additive probing while the tail is under target, multiplicative
// backoff (and a fresh evidence window) the moment it is not — always
// within [MinRateMBps, MaxRateMBps]. The rate is enforced by a
// token-bucket lane layered on the spine (sim.PacedBandwidth):
// foreground transfers keep FIFO access to the link, repair batches
// wait for tokens that refill at the controller's rate, and enqueued
// batches are split to token-sized transfers so a single batch cannot
// monopolize the link. The MinRateMBps floor is the no-starvation
// guarantee: repair always completes, just slower while the SLO is
// tight. Result reports the trade-off: RepairCompletionTime (when the
// last batch landed), SLOViolationFraction (fraction of controller
// ticks whose windowed p99 exceeded target), and RepairRateTimeline
// (every rate the controller set). Spine byte counters come in
// delivered/offered pairs (CrossRackRepairBytes vs
// CrossRackRepairBytesOffered, ForegroundCrossRackBytes vs
// ForegroundCrossRackBytesOffered): delivered counts only transfers
// whose last byte cleared the link, offered counts at enqueue, and the
// two reconcile exactly once a run drains. The pacing-off vs pacing-on
// comparison on the figsc repeated-fault timeline is
// Experiment("figslo", ...), also reachable as rackbench -exp figslo
// (with -repair-slo overriding the auto-derived target); see
// examples/slo.
//
// # Repair-efficient rack-aware codes
//
// RS repair is spine-hungry: rebuilding one lost chunk fetches k chunks,
// most from remote racks, so every lost byte costs about k bytes of
// cross-rack traffic on the metered link. RedundancyLRC is the
// repair-efficient second code family: the same RS(k,m) global code
// spread across racks, plus one local parity chunk per rack — the XOR
// of that rack's global chunks, placed on a server of its own
// (Config.Racks > 1 and PlacementSpread required; ECSpec's
// ValidateClusterLocal checks the geometry, including the extra server
// per rack the parity needs). The family changes what failures cost:
//
//   - A single-server loss repairs entirely inside its rack: the lost
//     chunk is the XOR of the rack's survivors plus its local parity,
//     so the rebuild ships zero spine bytes and bypasses the repair
//     pacer's token lane entirely (Result.LocalRepairStripes). Degraded
//     reads steered to a rack-mate reconstruct the same way
//     (Result.LocalDegradedReads).
//   - Multi-loss repair falls back to the global code but aggregates:
//     each remote rack combines its survivors into one GF(2^8) partial
//     sum locally and ships a single chunk-sized aggregate per batch,
//     so the spine carries one chunk per remote rack instead of k raw
//     chunks (Result.AggregatedRepairStripes).
//   - Durability is equal or better than the underlying RS(k,m): any m
//     global losses stay recoverable, and additionally a rack whose
//     only casualty is one global chunk repairs locally, which
//     Result.UnrecoverableStripes credits.
//
// The honest cost is write amplification: updating a chunk also updates
// the local parity of every rack the write touches, so a logical write
// fans out to more sub-writes than RS's 1+m. The code-family comparison
// at fixed durability on a scarce spine is Experiment("figra", ...),
// also reachable as rackbench -exp figra (and -redundancy lrc4,2); see
// examples/lrc.
//
// # Flight recorder
//
// The rack carries an always-available, observer-only flight recorder:
// request tracing, time-series metrics, and p99 attribution across the
// whole datapath. Config.Trace turns on a sim-time span tracer that
// records where each request's latency went — client queueing, ToR
// lookup and handoff, spine wait vs transfer, device service, GC
// blocking, degraded-read reconstruction, retransmits — plus
// control-plane instants (scenario fail/revive, pacer rate changes,
// repair enqueue/re-integration) and GC bursts. Retention combines head
// sampling (one request in TraceOptions.SampleEvery by key hash) with a
// tail reservoir that always keeps the slowest reads, so the p99 story
// survives sampling. Config.MetricsInterval arms a periodic sampler
// (spine utilization, repair rate and backlog, windowed read p50/p99,
// GC and degraded-read activity, per-rack request rates) driven by the
// engine's observer tick.
//
//	cfg := rackblox.DefaultConfig()
//	cfg.Trace = rackblox.TraceOptions{Enabled: true, SampleEvery: 8}
//	cfg.MetricsInterval = 1_000_000 // sample every 1ms of virtual time
//	res, _ := rackblox.Run(cfg)
//	res.Trace.WriteChromeTrace(f)   // load f in ui.perfetto.dev
//	res.Timelines.WriteCSV(g)       // plot the run's time series
//	for _, s := range res.TailAttribution {
//		fmt.Printf("%-16s %5.1f%%\n", s.Phase, 100*s.Fraction)
//	}
//
// Result.Trace holds the retained spans (export with WriteChromeTrace,
// loadable in Perfetto or chrome://tracing), Result.Timelines the
// sampled series (export with WriteCSV), and Result.TailAttribution the
// per-phase share of the slowest 1% of reads' latency — the direct
// answer to "why is p99 high", with fractions summing to ~1 because
// each request's phases tile its end-to-end latency. Both knobs are
// observer-only by construction: the tracer and sampler never schedule
// events and never draw randomness, so an instrumented run is
// byte-identical to a plain one in everything but the recorder's own
// output (asserted under test). Result.EventsByHandler breaks the
// engine's processed-event count down per handler class in every run,
// instrumented or not. See examples/tracing, or rackbench's -trace,
// -metrics, and -trace-sample flags.
//
// # Simulator invariants
//
// Each Rack runs on one sim.Engine: every rack of a cluster, the spine
// and the scenario driver share its event queue, ordered by (time,
// insertion sequence), and the figure replay suite reruns same-seed runs
// and compares their results byte for byte. Cross-rack traffic goes
// through the core.Spine boundary, the seam along which the datapath is
// to move onto sim.ShardGroup, the tested lookahead runner: one engine
// per rack plus a coordinator shard, run on parallel goroutines under
// conservative-lookahead synchronization. Each window extends to the
// earliest pending event time plus the cross-shard lookahead (the spine
// propagation delay) minus one tick, so shards never need to see each
// other's state mid-window; cross-shard events travel through per-edge
// mailboxes and are delivered in canonical (time, source shard, send
// sequence) order, which makes the parallel run byte-identical to the
// sequential one — RunSequential is kept as the differential oracle,
// and a fuzzer compares the two modes event trace for event trace.
// Handlers on shards obey a shard-ownership discipline: an executing
// event touches only its own shard's state, and cross-shard work
// carries only by-value data through ShardGroup.Post, whose lookahead
// contract (deliveries at least one lookahead in the future) is
// enforced at the call site.
//
// The datapath is allocation-free in steady state, and stays so by four
// rules. Hot events are typed records: every hop of a request (client to
// ToR, ToR pipeline, ToR to server, server back through the ToR, each
// Hermes message, each flash completion, each chunk fetch of a degraded
// read, each repair batch, each GC control message) schedules a pooled,
// pointer-typed record implementing sim.Handler instead of a capturing
// closure, and per-pair, per-instance and per-group events (issue, pump,
// GC monitor, repair pump, pacer tick) are funcs bound once at build
// time. Pooled state is re-resolved by seq: request states and
// scheduler requests are recycled through free lists, so a record that
// outlives an event carries the request's seq and looks the request up
// in the rack's table when it fires; seq is never reused, so a recycled
// struct can never pass for a live request. Per-request state lives in
// dense tables, not maps or growing slices: the FTL's reverse map, the
// Hermes key and pending tables and the write cache are indexed by page
// number, per-holder EC state by holder index, scratch lists are reused
// buffers, and the latency recorder fills fixed chunks. Labels are
// declared with sim.NewLabel at package scope, so scheduling an event
// costs no string lookup. TestRackSteadyStateAllocs gates it in CI at
// 0.1 heap allocations per completed request, for a replicated rack and
// for an erasure-coded cluster through fail/revive cycles.
//
// Every measurement above rests on five invariants that the cmd/rackvet
// analysis suite (internal/analysis) machine-checks, so they hold by
// construction rather than by review:
//
//   - simdeterminism: simulation packages (internal/sim, core, ec,
//     switchsim, replication, ssd, sched, experiments) contain no
//     order-sensitive map iteration — a map range whose body schedules
//     events, writes exported result state, records trace/stats
//     samples, draws randomness, or calls through a function value (a
//     transport or callback, assumed to schedule) must iterate sorted
//     keys or carry a `//rackvet:commutative <rationale>` directive
//     asserting the body commutes — and no global math/rand use or
//     goroutine spawns (the shard runner's worker pool in internal/sim's
//     shardrun.go is the one sanctioned exception). Same-seed runs
//     replay byte-identically, parallel or sequential.
//   - simtime: no wall-clock reads (time.Now/Since/Until/Sleep/timers)
//     anywhere simulation logic runs; the only clock is virtual
//     sim.Time. _test.go files, cmd/, and examples/ are exempt, and
//     internal/walltime is the single audited boundary for host-time
//     measurement (benchmark soak timing).
//   - eventlabel: every event scheduled in internal packages goes
//     through Engine.Schedule/ScheduleAfter (ShardGroup.Post across
//     shards) with a sim.Label declared by sim.NewLabel at package
//     scope under a constant, non-empty name, so Result.EventsByHandler
//     accounts for every processed event and no event pays a label
//     lookup; the unlabeled At/After and the string-named
//     AtNamed/AfterNamed/Send forms are for code outside the simulator.
//     A deliberate exception carries `//rackvet:unlabeled <rationale>`.
//   - observerpure: internal/trace and internal/stats never schedule
//     events, call into simulation components, draw from sim.RNG, or
//     write simulation-state fields — the static side of the
//     "instrumented runs are byte-identical" guarantee.
//   - goroutinediscipline: `go` statements appear in exactly one file
//     of the internal tree — internal/sim's shardrun.go, the shard
//     worker pool whose window barrier keeps the concurrency
//     unobservable. There is deliberately no directive escape hatch:
//     new concurrency must go through the shard runner or move the
//     carve-out in review.
//
// Run the suite standalone (CI does both of these on every push):
//
//	go run ./cmd/rackvet ./...
//
// or as a go vet tool, which caches per-package results incrementally:
//
//	go build -o rackvet ./cmd/rackvet
//	go vet -vettool=$(pwd)/rackvet ./...
//
// Each directive escape hatch is a reviewed assertion, not a
// suppression: the rationale text after the directive name is required
// — the analyzers report a bare `//rackvet:commutative` or
// `//rackvet:unlabeled` with no rationale as a finding — and its
// content is audited in review.
//
// Quick start:
//
//	cfg := rackblox.DefaultConfig()
//	cfg.System = rackblox.SystemRackBlox
//	res, err := rackblox.Run(cfg)
//	if err != nil { ... }
//	fmt.Println("P99.9 read:", res.Recorder.Reads().P999())
//
// The four systems of the paper's evaluation are available as
// SystemVDC, SystemRackBloxSoftware, SystemRackBloxCoordIO and
// SystemRackBlox; every table and figure of §4 can be regenerated with
// the Experiment function or the cmd/rackbench binary.
package rackblox

import (
	"rackblox/internal/core"
	"rackblox/internal/ec"
	"rackblox/internal/experiments"
	"rackblox/internal/flash"
	"rackblox/internal/netsim"
	"rackblox/internal/sched"
	"rackblox/internal/stats"
	"rackblox/internal/trace"
	"rackblox/internal/wear"
	"rackblox/internal/workload"
)

// Config parameterizes one rack experiment; see DefaultConfig for the
// paper's setup.
type Config = core.Config

// WorkloadSpec selects the client workload (YCSB mixes or the Table 2
// BenchBase applications).
type WorkloadSpec = core.WorkloadSpec

// Result is the outcome of one run: latency recorder plus event counters.
type Result = core.Result

// System identifies one of the four evaluated designs.
type System = core.System

// The evaluated systems (§4.1).
const (
	SystemVDC              = core.VDC
	SystemRackBloxSoftware = core.RackBloxSoftware
	SystemRackBloxCoordIO  = core.RackBloxCoordIO
	SystemRackBlox         = core.RackBlox
)

// Sample is one completed request with its latency breakdown.
type Sample = stats.Sample

// Recorder accumulates samples and computes the evaluation's statistics.
type Recorder = stats.Recorder

// Dist is a latency distribution with percentile accessors.
type Dist = stats.Dist

// DefaultConfig returns the paper's default experimental setup, scaled to
// simulation: four storage servers, four hardware-isolated vSSD pairs on
// P-SSD-class devices, Kyber scheduling, 35%/25% GC thresholds, and YCSB
// at a 50/50 read/write mix.
func DefaultConfig() Config { return core.DefaultConfig() }

// Systems lists the four designs in evaluation order.
func Systems() []System { return core.Systems() }

// Run executes one configured experiment end to end and returns its
// latency distributions and event counters.
func Run(cfg Config) (*Result, error) { return core.Run(cfg) }

// RedundancySpec selects the rack's redundancy backend (Config.Redundancy).
type RedundancySpec = core.RedundancySpec

// RedundancyReplication is the paper's 2-way Hermes replication (default).
func RedundancyReplication() RedundancySpec { return core.Replication() }

// RedundancyEC stripes every volume RS(k,m) over k+m servers: reads of a
// failed or collecting chunk holder reconstruct from any k survivors.
func RedundancyEC(k, m int) RedundancySpec { return core.ErasureCode(k, m) }

// RedundancyLRC is the repair-efficient rack-aware family: RS(k,m)
// global chunks spread across racks plus one local parity chunk per
// rack, so a single-server loss repairs inside its rack with zero spine
// bytes and multi-loss repair ships one aggregated chunk per remote
// rack. Requires Config.Racks > 1 and PlacementSpread.
func RedundancyLRC(k, m int) RedundancySpec { return core.LocalParityCode(k, m) }

// PlacementMode selects how erasure-coded stripes map onto the cluster's
// rack fault domains (Config.Placement) when Config.Racks > 1.
type PlacementMode = core.PlacementMode

// Placement modes: compact confines each stripe group to one rack;
// spread caps every rack at m chunks per stripe so a whole-rack failure
// stays recoverable.
const (
	PlacementCompact = core.PlacementCompact
	PlacementSpread  = core.PlacementSpread
)

// FailureSpecError is the typed validation error for fault and repair
// configuration: malformed Config.Scenario timelines (out-of-range
// indices, double crashes, revive-before-fail, same-instant fault-
// domain double-booking) and contradictory RepairSLO settings. Field
// names the rejected setting, "Scenario" or "RepairSLO".
type FailureSpecError = core.FailureSpecError

// RepairSLO configures the latency-SLO-aware repair rate controller
// (Config.RepairSLO): the foreground read p99 target the pacer defends,
// the min/max repair admission rate bounds, and the sensor window and
// tick interval. The zero value disables pacing.
type RepairSLO = core.RepairSLO

// RatePoint is one entry of Result.RepairRateTimeline: the repair
// admission rate the AIMD controller set at a virtual-time instant.
type RatePoint = core.RatePoint

// TraceOptions enables and tunes the flight recorder (Config.Trace):
// head-sampling rate and tail-reservoir size. The zero value disables
// tracing.
type TraceOptions = trace.Options

// Trace is a traced run's collected output (Result.Trace): retained
// request/repair spans, control-plane instants, and GC bursts. Export
// with WriteChromeTrace for Perfetto.
type Trace = trace.Trace

// TraceSpan is one timed operation in a Trace: a request root with its
// phase partition and nested children, or a background repair batch.
type TraceSpan = trace.Span

// PhaseShare is one row of Result.TailAttribution: the fraction of the
// slowest reads' total latency spent in one datapath phase.
type PhaseShare = trace.PhaseShare

// TimeSeries is the periodic metrics sampler's output
// (Result.Timelines); export with WriteCSV or re-load with
// stats.ParseCSV.
type TimeSeries = stats.TimeSeries

// Event is one typed entry of a scenario timeline (Config.Scenario): a
// fault or recovery action applied to a server or rack index at its own
// virtual-time instant.
type Event = core.Event

// EventKind discriminates the scenario event union.
type EventKind = core.EventKind

// The scenario event kinds; build events with the constructors below.
const (
	EventFailServer   = core.EventFailServer
	EventFailRack     = core.EventFailRack
	EventFailToR      = core.EventFailToR
	EventReviveServer = core.EventReviveServer
	EventReviveToR    = core.EventReviveToR
)

// FailServer schedules a crash of global server idx at virtual time at
// (nanoseconds).
func FailServer(idx int, at int64) Event { return core.FailServer(idx, at) }

// FailRack schedules a whole-rack crash of rack idx at time at.
func FailRack(idx int, at int64) Event { return core.FailRack(idx, at) }

// FailToR schedules a ToR-switch failure of rack idx at time at: the
// rack's servers stay alive but unreachable, no data is lost.
func FailToR(idx int, at int64) Event { return core.FailToR(idx, at) }

// ReviveServer schedules the revival of crashed server idx at time at:
// the box returns blank, catches up via the metered reconstructor, and
// is re-registered under its original id; replicated instances re-pair
// with their survivors.
func ReviveServer(idx int, at int64) Event { return core.ReviveServer(idx, at) }

// ReviveToR schedules the revival of rack idx's failed ToR at time at:
// blank SRAM, control-plane table replay from survivors.
func ReviveToR(idx int, at int64) Event { return core.ReviveToR(idx, at) }

// ECSpec is the RS(k,m) parameterization of the erasure-coding subsystem.
type ECSpec = ec.Spec

// ECCodec encodes and reconstructs RS(k,m) stripes over GF(2^8).
type ECCodec = ec.Codec

// NewECCodec builds a systematic RS codec for the spec.
func NewECCodec(spec ECSpec) (*ECCodec, error) { return ec.NewCodec(spec) }

// ErrStripeUnrecoverable reports more than m erasures in one stripe.
var ErrStripeUnrecoverable = ec.ErrStripeUnrecoverable

// Device profiles of §4.5.3, fastest to slowest.
func DeviceOptane() flash.Profile  { return flash.ProfileOptane() }
func DeviceIntelDC() flash.Profile { return flash.ProfileIntelDC() }
func DevicePSSD() flash.Profile    { return flash.ProfilePSSD() }

// Network profiles of §4.5.3, fastest to slowest.
func NetworkFast() netsim.Profile   { return netsim.ProfileFast() }
func NetworkMedium() netsim.Profile { return netsim.ProfileMedium() }
func NetworkSlow() netsim.Profile   { return netsim.ProfileSlow() }

// Storage scheduler policies of §4.5.1, plus CFQ (the paper's
// reference [17]).
const (
	SchedFIFO     = sched.FIFO
	SchedDeadline = sched.Deadline
	SchedKyber    = sched.Kyber
	SchedCFQ      = sched.CFQ
)

// Workloads lists the five BenchBase applications of Table 2.
func Workloads() []string { return workload.Names() }

// ExperimentIDs lists the id of every experiment in the registry, the
// same list rackbench -list prints: the paper's tables and figures in
// order, then the experiments beyond the paper.
func ExperimentIDs() []string {
	var ids []string
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// ExperimentTable is a printable experiment result.
type ExperimentTable = experiments.Table

// Experiment runs one registry entry by id (e.g. "fig9", "table2") with
// default options and returns its tables; every simulated cell runs once,
// so figures sharing a grid (Fig. 9a and 9b) share its runs. scale in
// (0,1] shrinks the measured window; use 1.0 to reproduce at full length.
func Experiment(id string, scale float64) ([]*ExperimentTable, error) {
	return experiments.ByID(id, experiments.Scale(scale), experiments.Options{})
}

// WearConfig parameterizes the rack-scale wear-leveling simulation.
type WearConfig = wear.Config

// WearRack is the wear-simulation state.
type WearRack = wear.Rack

// DefaultWearConfig reproduces the Fig. 22/23 setup: 32 servers x 16 SSDs
// x 4 vSSDs, 12-day local and 8-week global swap periods.
func DefaultWearConfig() WearConfig { return wear.DefaultConfig() }

// NewWearRack builds a wear-leveling simulation.
func NewWearRack(cfg WearConfig) (*WearRack, error) { return wear.New(cfg) }
