package experiments

import (
	"strings"
	"testing"
)

// tiny runs experiments at the smallest scale for test speed.
const tiny = Scale(0.1)

// mustTables runs a registered experiment and fails the test on error.
func mustTables(t *testing.T, id string, scale Scale) []*Table {
	t.Helper()
	tables, err := ByID(id, scale, Options{})
	if err != nil {
		t.Fatalf("ByID(%q): %v", id, err)
	}
	return tables
}

func findRow(t *Table, series, x string) (Row, bool) {
	for _, r := range t.Rows {
		if r.Series == series && (x == "" || r.X == x) {
			return r, true
		}
	}
	return Row{}, false
}

func TestTable2MatchesPaper(t *testing.T) {
	tb := Table2()
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tb.Rows))
	}
	r, ok := findRow(tb, "Twitter", "")
	if !ok || r.Values["write_pct"] != 97.86 {
		t.Fatalf("Twitter row = %+v", r)
	}
	r, ok = findRow(tb, "TPC-H", "")
	if !ok || r.Values["write_pct"] != 2.27 {
		t.Fatalf("TPC-H row = %+v", r)
	}
}

func TestFig9ShapeRackBloxWins(t *testing.T) {
	tb := mustTables(t, "fig9", tiny)[0]
	// At the write-heavy 20/80 mix RackBlox must beat VDC on P99.9 reads.
	vdc, ok1 := findRow(tb, "VDC", "20/80")
	rb, ok2 := findRow(tb, "RackBlox", "20/80")
	if !ok1 || !ok2 {
		t.Fatalf("rows missing: %v %v", ok1, ok2)
	}
	if rb.Values["value"] >= vdc.Values["value"] {
		t.Errorf("RackBlox P99.9 %.2fms >= VDC %.2fms at 20/80",
			rb.Values["value"], vdc.Values["value"])
	}
	if rb.Values["norm_vs_vdc"] >= 1 {
		t.Errorf("normalized RackBlox = %.2f, want < 1", rb.Values["norm_vs_vdc"])
	}
}

func TestFig12ThroughputPopulated(t *testing.T) {
	tb := mustTables(t, "fig12", tiny)[0]
	if len(tb.Rows) != len(mixes)*4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		if r.Values["kiops"] <= 0 {
			t.Fatalf("zero throughput row %+v", r)
		}
	}
}

func TestFig15StorageLEQTotal(t *testing.T) {
	tb := mustTables(t, "fig15", tiny)[0]
	for _, r := range tb.Rows {
		if r.Values["storage"] > r.Values["total"]+0.001 {
			t.Fatalf("storage %.3f > total %.3f in %s/%s",
				r.Values["storage"], r.Values["total"], r.Series, r.X)
		}
	}
}

func TestFig16CDFMonotone(t *testing.T) {
	tb := mustTables(t, "fig16", tiny)[0]
	for _, r := range tb.Rows {
		if !(r.Values["p98.5"] <= r.Values["p99"] &&
			r.Values["p99"] <= r.Values["p99.5"] &&
			r.Values["p99.5"] <= r.Values["p99.9"]) {
			t.Fatalf("non-monotone CDF in %s/%s: %+v", r.Series, r.X, r.Values)
		}
	}
}

func TestFig17CoordinationHelpsEachScheduler(t *testing.T) {
	tb := mustTables(t, "fig17", tiny)[0]
	// Coordination must not collapse any scheduler: every coordinated
	// variant keeps at least half its base's speed (runs are short; exact
	// speedups need full scale).
	for _, base := range []string{"FIFO", "Deadline", "Kyber"} {
		r, ok := findRow(tb, "RackBlox ("+base+")", "50/50")
		if !ok {
			t.Fatalf("missing coordinated row for %s", base)
		}
		if r.Values["speedup_vs_base"] < 0.5 {
			t.Errorf("%s coordination speedup %.2f collapsed", base, r.Values["speedup_vs_base"])
		}
	}
}

func TestFig22SwappingBalances(t *testing.T) {
	tb := Fig22()
	noswap, _ := findRow(tb, "No Swap", "after 2 year(s)")
	swap, _ := findRow(tb, "RackBlox", "after 2 year(s)")
	if swap.Values["imbalance_max"] >= noswap.Values["imbalance_max"] {
		t.Errorf("swap imbalance %.3f >= no-swap %.3f",
			swap.Values["imbalance_max"], noswap.Values["imbalance_max"])
	}
	if swap.Values["imbalance_mean"] > 1.2 {
		t.Errorf("balanced mean imbalance %.3f too high", swap.Values["imbalance_mean"])
	}
}

func TestFig23PeriodsOrdered(t *testing.T) {
	tb := Fig23()
	noswap, _ := findRow(tb, "No Swap", "")
	fast, _ := findRow(tb, "RB-Swap per 4 Weeks", "")
	if fast.Values["week80"] >= noswap.Values["week80"] {
		t.Errorf("4-week swapping %.3f >= no swap %.3f at week 80",
			fast.Values["week80"], noswap.Values["week80"])
	}
}

func TestPredictorAccuracyTable(t *testing.T) {
	tb := PredictorAccuracy()
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		if r.Values["hit_rate"] < 0.5 {
			t.Errorf("%s hit rate %.3f too low", r.Series, r.Values["hit_rate"])
		}
	}
}

func TestByIDAll(t *testing.T) {
	// Every entry is complete and unique; run the cheap ones.
	seen := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Headline == "" || e.tables == nil || seen[e.ID] {
			t.Errorf("bad registry entry %+v", e)
		}
		seen[e.ID] = true
		switch e.ID {
		case "table2", "fig22", "fig23", "predictor":
			if len(mustTables(t, e.ID, tiny)) == 0 {
				t.Errorf("ByID(%q) returned no tables", e.ID)
			}
		}
	}
	if _, err := ByID("nope", tiny, Options{}); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestTableFormat(t *testing.T) {
	tb := Table2()
	s := tb.Format()
	if !strings.Contains(s, "Table2") || !strings.Contains(s, "Twitter") {
		t.Fatalf("format output missing content:\n%s", s)
	}
}

func TestScaleDuration(t *testing.T) {
	if Scale(0).duration(1000) < 1 {
		t.Fatal("zero scale must fall back to full")
	}
	if d := Scale(0.5).duration(1_000_000_000); d != 500_000_000 {
		t.Fatalf("scaled duration = %d", d)
	}
	// Floors at 100ms.
	if d := Scale(0.001).duration(1_000_000_000); d != 100_000_000 {
		t.Fatalf("floored duration = %d", d)
	}
}

func TestGCAblation(t *testing.T) {
	tb := mustTables(t, "gcablation", 0.4)[0]
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		if r.Values["value"] <= 0 {
			t.Errorf("%s has zero latency", r.Series)
		}
		if r.Values["gc_events"] <= 0 {
			t.Errorf("%s ran no GC", r.Series)
		}
	}
}

func TestFigECComparesBackends(t *testing.T) {
	tb := mustTables(t, "figec", tiny)[0]
	if len(tb.Rows) != 6 { // 3 scenarios x 2 redundancy schemes
		t.Fatalf("rows = %d, want 6", len(tb.Rows))
	}
	for _, series := range []string{"2-replication", "RS(4,2)"} {
		for _, x := range []string{"YCSB 50/50", "GC storm (Twitter)", "YCSB + 2 crashes"} {
			r, ok := findRow(tb, series, x)
			if !ok {
				t.Fatalf("missing row %s / %s", series, x)
			}
			if r.Values["p999_ms"] <= 0 || r.Values["kiops"] <= 0 {
				t.Errorf("%s / %s: empty metrics %+v", series, x, r.Values)
			}
		}
	}
	// The crash scenario must show EC serving reads degraded, losing none.
	r, _ := findRow(tb, "RS(4,2)", "YCSB + 2 crashes")
	if r.Values["degraded"] <= 0 {
		t.Errorf("EC crash scenario recorded no degraded reads: %+v", r.Values)
	}
	if r.Values["lost_reads"] != 0 {
		t.Errorf("EC crash scenario lost %v reads", r.Values["lost_reads"])
	}
}
