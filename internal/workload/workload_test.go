package workload

import (
	"math"
	"testing"

	"rackblox/internal/sim"
)

const keyspace = 1 << 16

func measureWriteFrac(g Generator, n int) float64 {
	writes := 0
	for i := 0; i < n; i++ {
		if g.Next().Write {
			writes++
		}
	}
	return float64(writes) / float64(n)
}

func TestYCSBWriteFractions(t *testing.T) {
	for _, frac := range []float64{0, 0.05, 0.2, 0.5, 0.8, 0.95, 1.0} {
		g := NewYCSB(sim.NewRNG(1), keyspace, frac, sim.Millisecond)
		got := measureWriteFrac(g, 20000)
		if math.Abs(got-frac) > 0.02 {
			t.Errorf("YCSB frac %f measured %f", frac, got)
		}
	}
}

func TestYCSBKeysInRange(t *testing.T) {
	g := NewYCSB(sim.NewRNG(2), 1000, 0.5, sim.Millisecond)
	for i := 0; i < 10000; i++ {
		if op := g.Next(); op.LPN >= 1000 {
			t.Fatalf("key %d out of range", op.LPN)
		}
	}
}

func TestYCSBSkewed(t *testing.T) {
	g := NewYCSB(sim.NewRNG(3), keyspace, 0.5, sim.Millisecond)
	counts := map[uint32]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		counts[g.Next().LPN]++
	}
	// The hottest key must receive far more than uniform share.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 20*n/keyspace {
		t.Fatalf("hottest key count %d not skewed", max)
	}
}

func TestMixLabel(t *testing.T) {
	if Mix(95) != "95/5" || Mix(0) != "0/100" {
		t.Fatal("mix labels")
	}
}

func TestBenchBaseWriteFracsMatchTable2(t *testing.T) {
	cases := []struct {
		name string
		want float64
	}{
		{"TPC-H", TPCHWriteFrac},
		{"Seats", SeatsWriteFrac},
		{"AuctionMark", AuctionMarkWriteFrac},
		{"TPC-C", TPCCWriteFrac},
		{"Twitter", TwitterWriteFrac},
	}
	for _, c := range cases {
		g, err := ByName(c.name, sim.NewRNG(7), keyspace, sim.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if g.Name() != c.name {
			t.Errorf("name = %q, want %q", g.Name(), c.name)
		}
		got := measureWriteFrac(g, 40000)
		if math.Abs(got-c.want) > 0.03 {
			t.Errorf("%s write frac = %f, want ~%f", c.name, got, c.want)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope", sim.NewRNG(1), 10, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestNamesMatchesTable2(t *testing.T) {
	names := Names()
	if len(names) != 5 {
		t.Fatalf("names = %v", names)
	}
	rows := Table2()
	if len(rows) != 6 {
		t.Fatalf("table2 rows = %d, want 6", len(rows))
	}
	for i, n := range names {
		if rows[i+1].Name != n {
			t.Errorf("row %d = %q, want %q", i+1, rows[i+1].Name, n)
		}
	}
}

func TestAuctionMarkPhasing(t *testing.T) {
	g, _ := ByName("AuctionMark", sim.NewRNG(8), keyspace, sim.Millisecond)
	// Count transitions between read and write runs: phased traffic has
	// far fewer transitions than a Bernoulli mix of the same ratio.
	const n = 20000
	transitions := 0
	prev := g.Next().Write
	runs := 0
	for i := 1; i < n; i++ {
		w := g.Next().Write
		if w != prev {
			transitions++
			runs++
		}
		prev = w
	}
	// Bernoulli at p=0.54 would transition ~0.5 of steps (~10000).
	if transitions > n/10 {
		t.Fatalf("AuctionMark transitions = %d, not phased", transitions)
	}
}

func TestTPCHScansSequential(t *testing.T) {
	g, _ := ByName("TPC-H", sim.NewRNG(9), keyspace, sim.Millisecond)
	sequential := 0
	var last uint32
	const n = 20000
	for i := 0; i < n; i++ {
		op := g.Next()
		if !op.Write && op.LPN == last+1 {
			sequential++
		}
		last = op.LPN
	}
	if sequential < n/2 {
		t.Fatalf("TPC-H sequential reads = %d/%d, want scan-dominated", sequential, n)
	}
}

func TestGapsArePositiveAndMeanish(t *testing.T) {
	g := NewYCSB(sim.NewRNG(10), keyspace, 0.5, sim.Millisecond)
	var sum sim.Time
	const n = 20000
	for i := 0; i < n; i++ {
		gap := g.NextGap()
		if gap < 0 {
			t.Fatal("negative gap")
		}
		sum += gap
	}
	mean := float64(sum) / n
	if mean < 0.9e6 || mean > 1.1e6 {
		t.Fatalf("mean gap = %f ns, want ~1ms", mean)
	}
}

func TestBurstyWorkloadsHaveShorterGaps(t *testing.T) {
	slow := NewSeats(sim.NewRNG(11), keyspace, sim.Millisecond)
	fast, _ := ByName("Twitter", sim.NewRNG(11), keyspace, sim.Millisecond)
	var sumSlow, sumFast sim.Time
	const n = 20000
	for i := 0; i < n; i++ {
		sumSlow += slow.NextGap()
		sumFast += fast.NextGap()
	}
	if sumFast >= sumSlow {
		t.Fatalf("bursty workload mean gap %d >= plain %d", sumFast/n, sumSlow/n)
	}
}

func TestDeterminism(t *testing.T) {
	a := NewYCSB(sim.NewRNG(42), keyspace, 0.3, sim.Millisecond)
	b := NewYCSB(sim.NewRNG(42), keyspace, 0.3, sim.Millisecond)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
}
