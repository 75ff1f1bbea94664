package experiments

import "testing"

// TestFigSCCycleHealsTwice pins the scenario-timeline experiment's
// acceptance criteria: after the fail -> revive-server -> catch-up
// cycle the revived holder serves directly again
// (degraded_post_repair == 0, restored_holders > 0) with read latency
// within 1.1x of the healthy baseline, and a second crash of the same
// server heals just as cleanly through adopter re-integration.
func TestFigSCCycleHealsTwice(t *testing.T) {
	tb := mustTables(t, "figsc", 1.0)[0]
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tb.Rows))
	}

	healthy, ok := findRow(tb, "healthy", "baseline")
	if !ok {
		t.Fatal("missing healthy baseline row")
	}
	if healthy.Values["degraded"] != 0 || healthy.Values["server_revivals"] != 0 {
		t.Errorf("healthy baseline saw failure activity: %+v", healthy.Values)
	}

	for _, x := range []string{"degraded", "degraded-again"} {
		r, ok := findRow(tb, map[string]string{
			"degraded": "fail+revive", "degraded-again": "fail-again"}[x], x)
		if !ok {
			t.Fatalf("missing %s row", x)
		}
		if r.Values["degraded"] <= 0 {
			t.Errorf("%s window served no degraded reads: %+v", x, r.Values)
		}
	}

	for _, row := range []struct{ series, x string }{
		{"fail+revive", "post-catch-up"},
		{"fail-again", "post-heal"},
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
		if r.Values["server_revivals"] != 1 {
			t.Errorf("%s/%s: %v server revivals, want 1", row.series, row.x,
				r.Values["server_revivals"])
		}
		if r.Values["restored_holders"] <= 0 {
			t.Errorf("%s/%s: catch-up restored no holders onto the revived server",
				row.series, row.x)
		}
	}

	post, _ := findRow(tb, "fail-again", "post-heal")
	if post.Values["reintegrated_stripes"] <= 0 {
		t.Error("second heal re-integrated no stripes")
	}
}
