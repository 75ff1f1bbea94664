package experiments

import "testing"

// TestFigSHShardedMatchesOracle pins the figsh table's structure and its
// one load-bearing claim: at every rack count the parallel sharded run
// produced a result deep-equal to the sequential oracle (identical=1),
// with the deterministic simulation-domain columns populated and sane.
// The wall-clock columns are host measurements and deliberately
// unasserted — on a single-CPU host speedup hovers near 1 and that is
// the honest number, not a failure.
func TestFigSHShardedMatchesOracle(t *testing.T) {
	tb := FigSH(0.05, Options{})
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 (racks 1,2,4,8,16)", len(tb.Rows))
	}
	wantRacks := []string{"1 racks", "2 racks", "4 racks", "8 racks", "16 racks"}
	for i, r := range tb.Rows {
		if r.X != wantRacks[i] {
			t.Fatalf("row %d x = %q, want %q", i, r.X, wantRacks[i])
		}
		if r.Values["identical"] != 1 {
			t.Errorf("%s: parallel result diverged from the sequential oracle", r.X)
		}
		if r.Values["ops"] <= 0 || r.Values["events"] <= 0 || r.Values["sim_ms"] <= 0 {
			t.Errorf("%s: empty run (ops=%v events=%v sim_ms=%v)",
				r.X, r.Values["ops"], r.Values["events"], r.Values["sim_ms"])
		}
		if r.X == "1 racks" {
			if r.Values["cross_ops"] != 0 {
				t.Errorf("1 rack: %v cross-rack ops with no peer racks", r.Values["cross_ops"])
			}
		} else if r.Values["cross_ops"] <= 0 {
			t.Errorf("%s: no cross-rack traffic; the spine path went unexercised", r.X)
		}
		if r.Values["maxprocs"] < 1 {
			t.Errorf("%s: maxprocs = %v", r.X, r.Values["maxprocs"])
		}
	}
}

// TestFigSHRegistered pins figsh into the experiment registry so
// rackbench -exp figsh resolves.
func TestFigSHRegistered(t *testing.T) {
	found := false
	for _, e := range All() {
		if e.ID == "figsh" {
			found = true
		}
	}
	if !found {
		t.Fatal("figsh missing from All()")
	}
	tabs, err := ByID("figsh", 0.05, Options{})
	if err != nil {
		t.Fatalf("ByID(figsh): %v", err)
	}
	if len(tabs) != 1 || tabs[0].ID != "FigSH" {
		t.Fatalf("ByID(figsh) = %v tables, want one FigSH", len(tabs))
	}
}
