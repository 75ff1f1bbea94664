package experiments

import "testing"

// TestFigMRPlacementSurvivesRackFailure checks the experiment's headline
// claim: under a whole-rack crash, spread placement loses no reads and
// no stripes while paying nonzero metered cross-rack repair bandwidth;
// compact placement loses whole stripe groups.
func TestFigMRPlacementSurvivesRackFailure(t *testing.T) {
	tb := mustTables(t, "figmr", tiny)[0]
	if len(tb.Rows) != 4 { // 2 scenarios x 2 placements
		t.Fatalf("rows = %d, want 4", len(tb.Rows))
	}
	spread, ok := findRow(tb, "multi-rack (spread)", "rack 0 crash")
	if !ok {
		t.Fatal("missing spread crash row")
	}
	if spread.Values["lost_reads"] != 0 || spread.Values["unrecov_stripes"] != 0 {
		t.Errorf("spread placement lost data under rack failure: %+v", spread.Values)
	}
	if spread.Values["degraded"] <= 0 {
		t.Errorf("spread placement served no degraded reads: %+v", spread.Values)
	}
	if spread.Values["cross_repair_mb"] <= 0 {
		t.Errorf("rack failure moved no cross-rack repair bytes: %+v", spread.Values)
	}
	if u := spread.Values["spine_util"]; u <= 0 || u > 1 {
		t.Errorf("spine utilization %v outside (0,1]", u)
	}
	compact, ok := findRow(tb, "single-rack (compact)", "rack 0 crash")
	if !ok {
		t.Fatal("missing compact crash row")
	}
	if compact.Values["unrecov_stripes"] <= 0 {
		t.Errorf("compact placement reported no data loss under rack failure: %+v", compact.Values)
	}
	if compact.Values["cross_repair_mb"] != 0 {
		t.Errorf("compact placement moved cross-rack repair bytes: %+v", compact.Values)
	}
	for _, series := range []string{"single-rack (compact)", "multi-rack (spread)"} {
		r, ok := findRow(tb, series, "healthy")
		if !ok {
			t.Fatalf("missing row %s / healthy", series)
		}
		if r.Values["lost_reads"] != 0 || r.Values["unrecov_stripes"] != 0 {
			t.Errorf("%s / healthy lost data without a failure: %+v", series, r.Values)
		}
	}
}
