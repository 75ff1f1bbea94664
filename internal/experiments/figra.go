package experiments

import (
	"rackblox/internal/core"
	"rackblox/internal/sim"
)

// figRA compares repair traffic across code families at fixed
// durability on a scarce spine: RS(4,2) against LRC(4,2) — the same
// global code plus one local parity chunk per rack — under a
// single-server crash and a whole-rack crash, both SLO-paced with one
// shared target so completion times are comparable. Both families
// tolerate any m=2 global losses, so the comparison runs at
// equal-or-better durability (the LRC side also rides out one extra loss
// per rack); what changes is what repair costs the spine. The rack-aware
// claims are three columns: cross_repair_mb is zero for LRC under a
// single-server loss (the rack-local XOR plan never touches the spine,
// where RS must fetch k chunks per stripe, most from remote racks);
// under the rack crash cross_chunks_per_stripe stays below k for both —
// survivors aggregate per rack — but LRC ships strictly fewer chunks
// than RS; and repair_done_ms improves under the same RepairSLO because
// token-free local batches and smaller spine batches drain the queue
// sooner. unrecov_stripes is zero everywhere: neither scenario exceeds
// either family's durability.
func figRA(scale Scale, opt Options) []*Table {
	code := func(spec core.RedundancySpec, x string, slo core.RepairSLO, events ...core.Event) cell {
		cfg := sloConfig(scale, opt)
		cfg.Redundancy = spec
		cfg.RepairSLO = slo
		cfg.Scenario = events
		return cell{series: spec.String(), x: x, cfg: cfg}
	}
	// One shared SLO target for every paced run, derived from the RS
	// healthy baseline unless the caller fixed one: completion times are
	// only comparable under the same foreground-latency budget.
	slo := core.RepairSLO{TargetP99: opt.RepairSLOTarget}
	if slo.TargetP99 <= 0 {
		healthy := sweep("figra", opt, code(core.ErasureCode(4, 2), "healthy", core.RepairSLO{}))[0]
		slo.TargetP99 = sim.Time(float64(healthy.reads.P99()) * sloTargetFactor)
	}
	var cells []cell
	for _, spec := range []core.RedundancySpec{core.ErasureCode(4, 2), core.LocalParityCode(4, 2)} {
		cells = append(cells,
			code(spec, "server 0 crash", slo, core.FailServer(0, scFailAt)),
			code(spec, "rack 0 crash", slo, core.FailRack(0, scFailAt)))
	}
	return []*Table{tabulate("FigRA",
		"Repair-efficient rack-aware codes: spine bytes and completion vs code family",
		sweep("figra", opt, cells...), map[string]extractor{
			"slo_target_ms": func(*run) float64 { return ms(slo.TargetP99) },
			// Spine chunks shipped per repaired stripe: the per-stripe
			// cross-rack cost of rebuilding one lost chunk (RS fetches
			// most of its k sources remotely; aggregation caps the count
			// at the remote rack count).
			"cross_chunks_per_stripe": func(r *run) float64 {
				if r.RepairedStripes <= 0 {
					return 0
				}
				pageMB := float64(r.Config.Geometry.PageSize) / 1e6
				return mb(r.CrossRackRepairBytes) / (pageMB * float64(r.RepairedStripes))
			},
		}, "read_p99_ms", "slo_target_ms", "repair_done_ms", "repaired", "pending", "cross_repair_mb",
		"cross_chunks_per_stripe", "local_repair", "agg_repair", "local_degraded", "degraded",
		"lost_reads", "unrecov_stripes")}
}
