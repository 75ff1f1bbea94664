package experiments

import "testing"

// TestFigRLLifecycleClosesLoop pins the experiment's acceptance
// criteria: after failure, repair, and re-integration the cluster is
// back to full health — no degraded read pays for an unreachable home
// (DegradedReadsPostRepair == 0), no repair work is left pending, read
// latency is within 1.1x of the healthy baseline on the sim clock, and
// foreground cross-rack bytes are reported separately from repair bytes.
func TestFigRLLifecycleClosesLoop(t *testing.T) {
	tb := mustTables(t, "figrl", 1.0)[0]
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tb.Rows))
	}

	healthy, ok := findRow(tb, "healthy", "baseline")
	if !ok {
		t.Fatal("missing healthy baseline row")
	}
	if healthy.Values["repair_cross_mb"] != 0 {
		t.Errorf("healthy cluster moved %.2f MB of repair traffic", healthy.Values["repair_cross_mb"])
	}
	if healthy.Values["fg_cross_mb"] <= 0 {
		t.Error("healthy multi-rack cluster metered no foreground spine traffic")
	}

	degraded, ok := findRow(tb, "server crash", "degraded")
	if !ok {
		t.Fatal("missing degraded row")
	}
	if degraded.Values["degraded"] <= 0 {
		t.Errorf("degraded phase served no degraded reads: %+v", degraded.Values)
	}
	if degraded.Values["vs_healthy"] <= 1 {
		t.Errorf("degraded phase not slower than baseline: %+v", degraded.Values)
	}

	for _, row := range []struct{ series, x string }{
		{"server crash", "post-repair"},
		{"tor outage+revive", "post-revival"},
	} {
		r, ok := findRow(tb, row.series, row.x)
		if !ok {
			t.Fatalf("missing row %s/%s", row.series, row.x)
		}
		if r.Values["degraded_post_repair"] != 0 {
			t.Errorf("%s/%s: %v degraded reads after healing", row.series, row.x,
				r.Values["degraded_post_repair"])
		}
		if r.Values["repair_pending"] != 0 {
			t.Errorf("%s/%s: repair never drained: %+v", row.series, row.x, r.Values)
		}
		if ratio := r.Values["vs_healthy"]; ratio > 1.1 {
			t.Errorf("%s/%s: read latency %.3fx healthy baseline, want <= 1.1x",
				row.series, row.x, ratio)
		}
		if r.Values["lost_reads"] != 0 {
			t.Errorf("%s/%s: lost %v reads", row.series, row.x, r.Values["lost_reads"])
		}
	}

	post, _ := findRow(tb, "server crash", "post-repair")
	if post.Values["reintegrated_stripes"] <= 0 {
		t.Error("crash scenario re-integrated no stripes")
	}
	if post.Values["repair_cross_mb"] <= 0 {
		t.Error("crash repair moved no cross-rack bytes")
	}
	revived, _ := findRow(tb, "tor outage+revive", "post-revival")
	if revived.Values["tor_revivals"] != 1 {
		t.Errorf("revival scenario revived %v ToRs, want 1", revived.Values["tor_revivals"])
	}
}
