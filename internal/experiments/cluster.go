package experiments

import (
	"fmt"

	"rackblox/internal/core"
	"rackblox/internal/flash"
	"rackblox/internal/sim"
)

// figEC compares the two redundancy backends — 2-way Hermes replication
// and RS(4,2) erasure coding — on an identical six-server rack, opening
// the replication-vs-EC experiment axis beyond the paper: read tails
// (degraded reads reconstruct around collectors and failures), the
// redundancy write cost (2x replicated sub-writes vs 1+m chunk
// sub-writes), and behavior under a GC storm and under m server crashes.
func figEC(scale Scale, opt Options) []*Table {
	gap := core.DefaultConfig().Workload.MeanGap
	ycsb := core.WorkloadSpec{Name: "YCSB", WriteFrac: 0.5, MeanGap: gap}
	var cells []cell
	for _, sc := range []struct {
		name     string
		workload core.WorkloadSpec
		failTwo  bool
	}{
		{"YCSB 50/50", ycsb, false},
		{"GC storm (Twitter)", core.WorkloadSpec{Name: "Twitter", MeanGap: gap}, false},
		{"YCSB + 2 crashes", ycsb, true},
	} {
		for _, red := range []core.RedundancySpec{core.Replication(), core.ErasureCode(4, 2)} {
			cfg := baseConfig(scale)
			cfg.System = core.RackBlox
			cfg.StorageServers = 6 // RS(4,2) spreads each stripe over six servers
			cfg.Redundancy = red
			cfg.Workload = sc.workload
			if sc.failTwo {
				at := cfg.Warmup + cfg.Duration/4
				cfg.Scenario = []core.Event{core.FailServer(0, at), core.FailServer(1, at)}
			}
			cells = append(cells, cell{series: red.String(), x: sc.name, cfg: cfg})
		}
	}
	return []*Table{tabulate("FigEC", "Replication vs RS(4,2): read tail, write cost, degraded reads",
		sweep("figec", opt, cells...), nil, "p99_ms", "p999_ms", "kiops", "write_amp", "degraded", "lost_reads")}
}

// clusterConfig is the multi-rack cluster: RackBlox on racks of six
// servers with three vSSD pairs, RS(4,2) spread across the racks, and
// cross-rack traffic metered on a 200 MB/s spine. Spread RS(4,2) needs at
// least ceil((k+m)/m) = 3 fault domains, so Options.Racks values below 3
// are raised to 3.
func clusterConfig(scale Scale, opt Options) core.Config {
	cfg := baseConfig(scale)
	cfg.System = core.RackBlox
	cfg.Racks = max(opt.Racks, 3)
	cfg.StorageServers = 6 // compact placement needs k+m servers in one rack
	cfg.VSSDPairs = 3
	cfg.Redundancy = core.ErasureCode(4, 2)
	cfg.Placement = core.PlacementSpread
	cfg.CrossRackMBps = opt.CrossBWMBps
	if cfg.CrossRackMBps <= 0 {
		cfg.CrossRackMBps = 200
	}
	return cfg
}

// figMR compares single-rack (compact) against multi-rack (spread)
// RS(4,2) placement on the same cluster — three racks of six servers
// under a spine link — healthy and under a whole-rack failure. Compact
// placement confines each stripe to one rack: the rack crash erases
// whole groups (lost reads, unrecoverable stripes). Spread placement
// caps every rack at m chunks per stripe, so the same crash leaves every
// stripe >= k chunks: reads complete degraded, and the repair traffic
// that rebuilds the lost chunks is metered on the finite cross-rack
// link (cross_repair_mb, bounded by the configured bandwidth;
// spine_util is the link's busy fraction).
func figMR(scale Scale, opt Options) []*Table {
	var cells []cell
	for _, sc := range []struct {
		name     string
		failRack bool
	}{{"healthy", false}, {"rack 0 crash", true}} {
		for _, pl := range []struct {
			series string
			mode   core.PlacementMode
		}{
			{"single-rack (compact)", core.PlacementCompact},
			{"multi-rack (spread)", core.PlacementSpread},
		} {
			cfg := clusterConfig(scale, opt)
			cfg.Placement = pl.mode
			if sc.failRack {
				cfg.Scenario = []core.Event{core.FailRack(0, cfg.Warmup+cfg.Duration/4)}
			}
			cells = append(cells, cell{series: pl.series, x: sc.name, cfg: cfg})
		}
	}
	return []*Table{tabulate("FigMR", "Single-rack vs multi-rack RS(4,2) placement under rack failure",
		sweep("figmr", opt, cells...), nil, "p99_ms", "kiops", "degraded", "lost_reads",
		"unrecov_stripes", "cross_repair_mb", "spine_util", "handoffs")}
}

// rlTimeline fixes the recovery-lifecycle instants (absolute virtual
// times, deliberately not scaled: repair and revival need real room to
// finish; Scale only shrinks the measured windows).
const (
	rlFailAt   = 120 * sim.Millisecond
	rlReviveAt = 300 * sim.Millisecond
	// rlHealedBy is when the cluster is expected back to full health:
	// detection (~30ms) + chunk reconstruction + re-integration for the
	// crash scenarios, revival + table replay for the ToR scenario. The
	// figrl test asserts the expectation via the lifecycle counters.
	rlHealedBy = 500 * sim.Millisecond
)

// rlConfig is the recovery-lifecycle cluster: the multi-rack cluster on
// Optane-class devices so background reconstruction completes well inside
// the simulated horizon, with a read-leaning mix so GC idle windows admit
// repair promptly.
func rlConfig(scale Scale, opt Options) core.Config {
	cfg := clusterConfig(scale, opt)
	cfg.Device = flash.ProfileOptane()
	cfg.Workload.WriteFrac = 0.2
	cfg.KeyspaceFrac = 0.25
	// A generous client window keeps the group issuing while requests
	// stuck on a freshly-crashed holder wait out their timeouts;
	// otherwise the default window clogs and the degraded phase shows
	// timeout stalls instead of degraded service.
	cfg.MaxClientInflight = 256
	return cfg
}

// phase is one figrl/figsc cell: the lifecycle cluster under a timeline,
// measured over the same-length window from measure on, so latencies are
// comparable across phases.
func phase(scale Scale, opt Options, series, x string, measure sim.Time, events ...core.Event) cell {
	cfg := rlConfig(scale, opt)
	cfg.Warmup = measure
	cfg.Duration = scale.duration(300 * sim.Millisecond)
	cfg.Scenario = events
	return cell{series: series, x: x, cfg: cfg}
}

// vsHealthy is the figrl/figsc ratio column: each phase's mean read
// latency over the healthy baseline's, the sweep's first phase.
func vsHealthy() map[string]extractor {
	healthy := func(r *run) bool { return r.series == "healthy" }
	return map[string]extractor{"vs_healthy": relative(readMean, healthy, false)}
}

// figRL traces the recovery lifecycle — fail, repair, re-integrate,
// revive — and shows the co-design closing the loop: after the
// reconstructor rebuilds a crashed server's chunks and re-registers the
// replacement holder in the ToR stripe tables, reads stop paying the
// degraded-reconstruction cost (degraded_post_repair == 0) and the read
// latency of the post-repair window returns to the healthy baseline
// (vs_healthy ~ 1); likewise a revived ToR resumes direct service after
// its stripe table is replayed from survivors. Foreground cross-rack
// traffic (fg_cross_mb) is metered on the same spine as repair traffic
// (repair_cross_mb) and reported separately.
func figRL(scale Scale, opt Options) []*Table {
	crash := core.FailServer(0, rlFailAt)
	dark := core.FailToR(1, rlFailAt)
	runs := sweep("figrl", opt,
		phase(scale, opt, "healthy", "baseline", rlHealedBy),
		phase(scale, opt, "server crash", "degraded", rlFailAt, crash),
		phase(scale, opt, "server crash", "post-repair", rlHealedBy, crash),
		phase(scale, opt, "tor outage", "dark", rlFailAt, dark),
		phase(scale, opt, "tor outage+revive", "post-revival", rlHealedBy, dark, core.ReviveToR(1, rlReviveAt)))
	return []*Table{tabulate("FigRL", "Recovery lifecycle: fail -> repair -> re-integrate -> revive",
		runs, vsHealthy(), "read_mean_ms", "read_p99_ms", "vs_healthy", "degraded",
		"degraded_post_repair", "reintegrated_stripes", "repair_pending",
		"fg_cross_mb", "repair_cross_mb", "lost_reads", "tor_revivals")}
}

// scTimeline fixes the scenario-cycle instants (absolute virtual times,
// deliberately not scaled, like the figrl timeline: repair needs real
// room to finish; Scale only shrinks the measured windows).
const (
	scFailAt   = 120 * sim.Millisecond
	scReviveAt = 300 * sim.Millisecond
	// scHealedBy is when the first cycle is expected fully healed:
	// detection (~30ms), degraded service, then catch-up repair onto the
	// revived blank server and RestoreStripeMember re-registration.
	scHealedBy = 550 * sim.Millisecond
	// scFail2At crashes the same server again after the first heal; its
	// loss now heals the PR-3 way (adopter re-integration), proving the
	// cycle can repeat indefinitely.
	scFail2At   = 650 * sim.Millisecond
	scHealed2By = 1050 * sim.Millisecond
)

// failReviveFail is the repeated-fault timeline of figsc and figslo:
// server 0 crashes, returns blank, catches up, and crashes again.
var failReviveFail = []core.Event{
	core.FailServer(0, scFailAt),
	core.ReviveServer(0, scReviveAt),
	core.FailServer(0, scFail2At),
}

// figSC sweeps a scenario timeline with a server revival in it:
// fail -> revive-server -> catch-up -> fail-again. A storage
// server crashes, returns blank mid-run (core.ReviveServer), catches up
// via the metered reconstructor, and is re-registered under its own id
// (switchsim.RestoreStripeMember) — degraded_post_repair is 0 and read
// latency returns to the healthy baseline (vs_healthy ~ 1). The same
// server then crashes again, and the second loss heals through adopter
// re-integration, showing repeated fail/heal cycles compose.
func figSC(scale Scale, opt Options) []*Table {
	cycle := failReviveFail[:2]
	runs := sweep("figsc", opt,
		phase(scale, opt, "healthy", "baseline", scHealedBy),
		phase(scale, opt, "fail+revive", "degraded", scFailAt, cycle...),
		phase(scale, opt, "fail+revive", "post-catch-up", scHealedBy, cycle...),
		phase(scale, opt, "fail-again", "degraded-again", scFail2At, failReviveFail...),
		phase(scale, opt, "fail-again", "post-heal", scHealed2By, failReviveFail...))
	return []*Table{tabulate("FigSC", "Scenario timeline: fail -> revive -> catch-up -> fail-again",
		runs, vsHealthy(), "read_mean_ms", "read_p99_ms", "vs_healthy", "degraded",
		"degraded_post_repair", "reintegrated_stripes", "restored_holders",
		"server_revivals", "repair_pending", "lost_reads")}
}

// ScenarioSummary runs the recovery-lifecycle cluster under one
// caller-supplied scenario timeline (cmd/rackbench -scenario) and
// tabulates the run's read latencies and lifecycle counters. The
// measured window opens after warmup and spans the whole timeline, so
// every event's effects land in one set of counters. A non-zero
// Options.RepairSLOTarget (-repair-slo) enables the SLO repair pacer
// for the run. repair_done_ms is the instant the last repair batch
// landed, paced or not (0 when no repair ran); slo_viol_frac is the
// controller's violated-tick fraction, 0 when pacing is off.
func ScenarioSummary(events []core.Event, scale Scale, opt Options) (*Table, error) {
	cfg := rlConfig(scale, opt)
	cfg.Warmup = 50 * sim.Millisecond
	cfg.Duration = scale.duration(1000 * sim.Millisecond)
	cfg.Scenario = events
	if opt.RepairSLOTarget > 0 {
		cfg.RepairSLO = core.RepairSLO{TargetP99: opt.RepairSLOTarget}
	}
	r, err := opt.execute("scenario", cell{series: "run", x: "whole timeline", label: "run", cfg: cfg})
	if err != nil {
		return nil, err
	}
	t := tabulate("Scenario", fmt.Sprintf("Scenario timeline with %d events", len(events)), []run{r}, nil,
		"read_mean_ms", "read_p99_ms", "degraded", "degraded_post_repair", "reintegrated_stripes",
		"restored_holders", "server_revivals", "tor_revivals", "repair_pending", "lost_reads",
		"slo_viol_frac", "repair_done_ms")
	rows := make([]Row, 0, len(events)+1)
	for _, ev := range events {
		rows = append(rows, Row{Series: "event", X: ev.String(), Values: map[string]float64{}})
	}
	t.Rows = append(rows, t.Rows...)
	return t, nil
}

// RedundancySummary runs one YCSB 50/50 benchmark with the chosen
// redundancy backend on a six-server rack and tabulates the headline
// metrics (cmd/rackbench's -redundancy flag).
func RedundancySummary(spec core.RedundancySpec, scale Scale, opt Options) (*Table, error) {
	cfg := baseConfig(scale)
	cfg.StorageServers = 6
	cfg.Redundancy = spec
	if spec.Scheme == core.LocalParityCoded {
		// The LRC family needs rack fault domains and spread placement.
		cfg.System = core.RackBlox
		cfg.Racks = 3
		cfg.Placement = core.PlacementSpread
	}
	r, err := opt.execute("redundancy", cell{series: spec.String(), x: "YCSB 50/50", cfg: cfg})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "Redundancy",
		Title: fmt.Sprintf("YCSB 50/50 with %s", spec),
		Cols:  []string{"p99_ms", "p999_ms", "kiops", "write_amp", "degraded"},
	}
	t.Rows = append(t.Rows,
		Row{Series: spec.String(), X: "reads", Values: map[string]float64{
			"p99_ms": p99(r.reads), "p999_ms": p999(r.reads),
		}},
		Row{Series: spec.String(), X: "writes", Values: map[string]float64{
			"p99_ms": p99(r.writes), "p999_ms": p999(r.writes),
		}},
		Row{Series: spec.String(), X: "volume", Values: map[string]float64{
			"kiops":     r.Recorder.Throughput() / 1000,
			"write_amp": r.WriteAmp,
			"degraded":  float64(r.DegradedReads),
		}},
	)
	return t, nil
}
