package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("different seeds matched %d/100 draws", same)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Fork(1)
	c2 := parent.Fork(2)
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Float64() == c2.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("forked streams matched %d/100 draws", same)
	}
}

func TestExpMean(t *testing.T) {
	g := NewRNG(3)
	const mean = 1000 * Microsecond
	var sum Time
	const n = 20000
	for i := 0; i < n; i++ {
		sum += g.Exp(mean)
	}
	got := float64(sum) / n
	if math.Abs(got-float64(mean)) > 0.05*float64(mean) {
		t.Fatalf("exp mean = %f, want ~%d", got, mean)
	}
}

func TestExpNonNegativeProperty(t *testing.T) {
	g := NewRNG(4)
	f := func(mean uint16) bool { return g.Exp(Time(mean)) >= 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExpZeroMean(t *testing.T) {
	g := NewRNG(5)
	if g.Exp(0) != 0 {
		t.Fatal("Exp(0) != 0")
	}
	if g.Exp(-5) != 0 {
		t.Fatal("Exp(negative) != 0")
	}
}

func TestLogNormalMedian(t *testing.T) {
	g := NewRNG(6)
	const n = 20001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = g.LogNormal(100, 0.5)
	}
	// Median of samples should approximate the parameter.
	med := quickSelectMedian(vals)
	if med < 90 || med > 110 {
		t.Fatalf("lognormal median = %f, want ~100", med)
	}
}

func quickSelectMedian(v []float64) float64 {
	// Simple nth-element via sorting a copy; fine for tests.
	c := append([]float64(nil), v...)
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && c[j] < c[j-1]; j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
	return c[len(c)/2]
}

func TestParetoLowerBound(t *testing.T) {
	g := NewRNG(8)
	for i := 0; i < 1000; i++ {
		if v := g.Pareto(50, 2.0); v < 50 {
			t.Fatalf("pareto sample %f below xm", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	g := NewRNG(9)
	hits := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if g.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if p < 0.27 || p > 0.33 {
		t.Fatalf("Bool(0.3) rate = %f", p)
	}
}

func TestZipfInRange(t *testing.T) {
	g := NewRNG(10)
	z := NewZipf(g, 0.99, 1000)
	for i := 0; i < 5000; i++ {
		if v := z.Next(); v >= 1000 {
			t.Fatalf("zipf sample %d out of range", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	g := NewRNG(11)
	z := NewZipf(g, 0.99, 10000)
	const n = 50000
	low := 0 // hits within the first 100 ranks
	for i := 0; i < n; i++ {
		if z.Next() < 100 {
			low++
		}
	}
	// Zipfian access concentrates: the top 1% of keys should receive far
	// more than 1% of accesses.
	if frac := float64(low) / n; frac < 0.3 {
		t.Fatalf("top-100 ranks got %f of accesses, want heavy skew", frac)
	}
}

func TestZipfN(t *testing.T) {
	g := NewRNG(12)
	z := NewZipf(g, 0.99, 777)
	if z.N() != 777 {
		t.Fatalf("N = %d, want 777", z.N())
	}
}
