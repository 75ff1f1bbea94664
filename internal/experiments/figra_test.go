package experiments

import "testing"

// TestFigRARackAwareCodesCutRepairTraffic pins the rack-aware coding
// experiment's acceptance criteria at equal-or-better durability than
// RS(4,2): a single-server loss repairs under LRC with zero cross-rack
// bytes (every stripe via the rack-local XOR plan); a whole-rack loss
// ships fewer than k chunks of spine bytes per repaired stripe under
// aggregated repair — and strictly fewer than RS ships; and repair
// completes sooner than RS under the same RepairSLO on the scarce
// spine. No scenario exceeds either family's durability.
func TestFigRARackAwareCodesCutRepairTraffic(t *testing.T) {
	tb := mustTables(t, "figra", 1.0)[0]
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tb.Rows))
	}
	get := func(series, x string) Row {
		r, ok := findRow(tb, series, x)
		if !ok {
			t.Fatalf("missing row %s/%s", series, x)
		}
		return r
	}
	rsServer := get("RS(4,2)", "server 0 crash")
	rsRack := get("RS(4,2)", "rack 0 crash")
	lrcServer := get("LRC(4,2)", "server 0 crash")
	lrcRack := get("LRC(4,2)", "rack 0 crash")

	// Durability floor: neither scenario loses a stripe in either family.
	for _, r := range tb.Rows {
		if r.Values["unrecov_stripes"] != 0 {
			t.Errorf("%s/%s: %v unrecoverable stripes at supposedly fixed durability",
				r.Series, r.X, r.Values["unrecov_stripes"])
		}
		if r.Values["pending"] != 0 {
			t.Errorf("%s/%s: %v repair tasks never drained", r.Series, r.X, r.Values["pending"])
		}
		if r.Values["repaired"] <= 0 {
			t.Errorf("%s/%s: no stripes repaired", r.Series, r.X)
		}
	}

	// Headline 1: the single-server loss never touches the spine under
	// LRC — every stripe rebuilds via the rack-local XOR plan — while RS
	// must fetch most of its k sources across racks.
	if lrcServer.Values["cross_repair_mb"] != 0 {
		t.Errorf("LRC single-server repair moved %.3f MB over the spine; the local plan moves none",
			lrcServer.Values["cross_repair_mb"])
	}
	if lrcServer.Values["local_repair"] < lrcServer.Values["repaired"] {
		t.Errorf("only %v of %v stripes repaired locally under a single-server loss",
			lrcServer.Values["local_repair"], lrcServer.Values["repaired"])
	}
	if lrcServer.Values["local_degraded"] <= 0 {
		t.Error("no degraded reads served by the rack-local plan")
	}
	if rsServer.Values["cross_repair_mb"] <= 0 {
		t.Error("RS single-server repair moved no spine bytes; the comparison scenario is dead")
	}

	// Headline 2: aggregated multi-loss repair ships fewer than k chunks
	// of spine bytes per repaired stripe, and strictly fewer than RS.
	k := 4.0
	if c := lrcRack.Values["cross_chunks_per_stripe"]; c <= 0 || c >= k {
		t.Errorf("LRC rack-crash repair shipped %.3f chunks per stripe, want in (0, k=%v)", c, k)
	}
	if lrcRack.Values["cross_chunks_per_stripe"] >= rsRack.Values["cross_chunks_per_stripe"] {
		t.Errorf("aggregated repair shipped %.3f chunks per stripe, not below RS's %.3f",
			lrcRack.Values["cross_chunks_per_stripe"], rsRack.Values["cross_chunks_per_stripe"])
	}
	if lrcRack.Values["agg_repair"] <= 0 {
		t.Error("no stripes repaired via the aggregated plan with the whole rack down")
	}

	// Headline 3: cheaper repair drains sooner under the same SLO.
	for _, pair := range [][2]Row{{lrcServer, rsServer}, {lrcRack, rsRack}} {
		if pair[0].Values["repair_done_ms"] >= pair[1].Values["repair_done_ms"] {
			t.Errorf("%s: LRC repair finished at %.3fms, not before RS's %.3fms",
				pair[0].X, pair[0].Values["repair_done_ms"], pair[1].Values["repair_done_ms"])
		}
		if pair[0].Values["slo_target_ms"] != pair[1].Values["slo_target_ms"] {
			t.Errorf("%s: families ran under different SLO targets (%.3f vs %.3f ms)",
				pair[0].X, pair[0].Values["slo_target_ms"], pair[1].Values["slo_target_ms"])
		}
	}

}
