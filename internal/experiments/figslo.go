package experiments

import (
	"rackblox/internal/core"
	"rackblox/internal/sim"
)

// sloCrossBWMBps is figslo's default spine bandwidth: deliberately
// scarcer than the other cluster experiments' 200 MB/s so unpaced repair
// visibly saturates the link and foreground reads queue behind its
// batches — the contention the pacer exists to control — while still
// leaving the steady foreground load comfortable headroom. -crossbw
// overrides it.
const sloCrossBWMBps = 80

// sloTargetFactor derives the SLO target from the healthy baseline when
// the caller gives none: the paced run must keep its p99 within this
// multiple of the p99 measured with no failure at all. The factor is a
// degraded-mode SLO: it leaves room for the intrinsic cost of degraded
// reads (k-fetch reconstruction plus spine hops), which no repair
// throttling can remove — the pacer controls the queueing repair adds on
// top, which is what blows the unpaced run far past this ceiling.
const sloTargetFactor = 2.5

// sloConfig is the scarce-spine cluster of figslo and figra: the
// recovery-lifecycle cluster on an 80 MB/s spine, measured from the first
// crash of the repeated-fault timeline until well past its second heal.
func sloConfig(scale Scale, opt Options) core.Config {
	if opt.CrossBWMBps <= 0 {
		opt.CrossBWMBps = sloCrossBWMBps
	}
	cfg := rlConfig(scale, opt)
	// Halve the client load of the lifecycle cluster: the scarce spine
	// must fit the steady foreground traffic with headroom (otherwise
	// foreground queueing alone collapses the baseline), leaving repair
	// as the marginal contender the pacer arbitrates.
	cfg.Workload.MeanGap *= 2
	// Measure the whole repeated-fault window: both crashes, the revival,
	// and the repair traffic between them land in one recorder.
	cfg.Warmup = scFailAt
	cfg.Duration = scale.duration(scHealed2By - scFailAt)
	return cfg
}

// figSLO measures the repair-rate vs foreground-latency trade-off the
// pacer closes: the figsc repeated-fault timeline replayed three ways —
// a healthy baseline (no failure, defines the SLO target when none is
// given), unpaced repair (admitted whenever GC idle windows allow, the
// pre-pacer behavior), and SLO-paced repair (core.RepairPacer holding
// the windowed foreground read p99 under the target by AIMD-adjusting
// the repair admission rate on the spine token lane). The pacing claim
// is the p99_ms column: unpaced repair drives it past slo_target_ms
// while pacing keeps it under, and repair still completes
// (repair_done_ms finite, pending 0 — the no-starvation floor). The
// byte columns reconcile delivered against offered spine traffic: equal
// here because a completed run drains every in-flight transfer.
func figSLO(scale Scale, opt Options) []*Table {
	timeline := func(series, x string, slo core.RepairSLO, events ...core.Event) cell {
		cfg := sloConfig(scale, opt)
		cfg.Scenario = events
		cfg.RepairSLO = slo
		return cell{series: series, x: x, label: series, cfg: cfg}
	}
	runs := sweep("figslo", opt, timeline("healthy", "no failure", core.RepairSLO{}))
	slo := core.RepairSLO{TargetP99: opt.RepairSLOTarget}
	if slo.TargetP99 <= 0 {
		slo.TargetP99 = sim.Time(float64(runs[0].reads.P99()) * sloTargetFactor)
	}
	runs = append(runs, sweep("figslo", opt,
		timeline("unpaced", "fail/revive/fail", core.RepairSLO{}, failReviveFail...),
		timeline("paced", "fail/revive/fail", slo, failReviveFail...))...)
	return []*Table{tabulate("FigSLO", "SLO-aware repair pacing: foreground p99 vs repair completion", runs,
		map[string]extractor{
			"slo_target_ms": func(*run) float64 { return ms(slo.TargetP99) },
			"final_rate_mbps": func(r *run) float64 {
				if n := len(r.RepairRateTimeline); n > 0 {
					return r.RepairRateTimeline[n-1].MBps
				}
				return 0
			},
		}, "p99_ms", "slo_target_ms", "viol_frac", "repair_done_ms", "repaired", "pending",
		"repair_mb", "repair_mb_offered", "fg_mb", "final_rate_mbps", "lost_reads")}
}
