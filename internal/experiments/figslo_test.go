package experiments

import "testing"

// TestFigSLOPacingHoldsSLO pins the pacing experiment's acceptance
// criteria: replaying the figsc repeated-fault timeline on a scarce
// spine, unpaced repair drives the foreground read p99 past the SLO
// target while the paced run keeps it under — and pacing is not
// starvation: repair still completes at a finite instant with nothing
// pending. The spine byte counters must also reconcile — delivered
// equals offered on every row, because a completed run drains all
// in-flight transfers.
func TestFigSLOPacingHoldsSLO(t *testing.T) {
	tb := mustTables(t, "figslo", 1.0)[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tb.Rows))
	}

	healthy, ok := findRow(tb, "healthy", "no failure")
	if !ok {
		t.Fatal("missing healthy row")
	}
	if healthy.Values["repaired"] != 0 || healthy.Values["lost_reads"] != 0 {
		t.Errorf("healthy baseline saw failure activity: %+v", healthy.Values)
	}
	target := healthy.Values["slo_target_ms"]
	if target <= healthy.Values["p99_ms"] {
		t.Fatalf("SLO target %.3fms not above the healthy p99 %.3fms",
			target, healthy.Values["p99_ms"])
	}

	unpaced, ok := findRow(tb, "unpaced", "fail/revive/fail")
	if !ok {
		t.Fatal("missing unpaced row")
	}
	if unpaced.Values["p99_ms"] <= target {
		t.Errorf("unpaced repair kept p99 %.3fms under the %.3fms target; the contention scenario is dead",
			unpaced.Values["p99_ms"], target)
	}

	paced, ok := findRow(tb, "paced", "fail/revive/fail")
	if !ok {
		t.Fatal("missing paced row")
	}
	if paced.Values["p99_ms"] > target {
		t.Errorf("paced p99 %.3fms violates the %.3fms SLO target",
			paced.Values["p99_ms"], target)
	}
	if paced.Values["p99_ms"] >= unpaced.Values["p99_ms"] {
		t.Errorf("pacing did not improve the tail: paced %.3fms >= unpaced %.3fms",
			paced.Values["p99_ms"], unpaced.Values["p99_ms"])
	}

	// Pacing must not starve repair: both fault rows finish healing.
	for _, r := range []Row{unpaced, paced} {
		if r.Values["pending"] != 0 {
			t.Errorf("%s: %v repair tasks never drained", r.Series, r.Values["pending"])
		}
		if r.Values["repaired"] <= 0 {
			t.Errorf("%s: no stripes repaired", r.Series)
		}
		if r.Values["repair_done_ms"] <= 0 {
			t.Errorf("%s: repair completion time %.3fms, want a finite instant",
				r.Series, r.Values["repair_done_ms"])
		}
		if r.Values["lost_reads"] != 0 {
			t.Errorf("%s: lost %v reads", r.Series, r.Values["lost_reads"])
		}
	}
	if paced.Values["final_rate_mbps"] <= 0 {
		t.Error("paced run recorded no controller rate timeline")
	}
	if f := paced.Values["viol_frac"]; f <= 0 || f >= 0.5 {
		t.Errorf("paced violation fraction %.3f outside (0, 0.5): the controller never engaged or thrashed", f)
	}

	// Byte reconciliation: a drained run delivered everything it offered.
	for _, r := range tb.Rows {
		if r.Values["repair_mb"] != r.Values["repair_mb_offered"] {
			t.Errorf("%s/%s: repair bytes unreconciled: delivered %.6f offered %.6f MB",
				r.Series, r.X, r.Values["repair_mb"], r.Values["repair_mb_offered"])
		}
	}

}
