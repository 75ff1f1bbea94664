package stats

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func rec(lat ...int64) *Recorder {
	r := NewRecorder()
	for i, l := range lat {
		r.Add(Sample{Total: l}, int64(i))
	}
	return r
}

func TestPercentileNearestRank(t *testing.T) {
	d := rec(10, 20, 30, 40, 50, 60, 70, 80, 90, 100).All()
	cases := []struct {
		p    float64
		want int64
	}{
		{50, 50}, {10, 10}, {100, 100}, {99, 100}, {95, 100}, {90, 90}, {1, 10},
	}
	for _, c := range cases {
		if got := d.Percentile(c.p); got != c.want {
			t.Errorf("P%.1f = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	d := NewRecorder().All()
	if d.Percentile(99) != 0 {
		t.Fatal("empty percentile != 0")
	}
	if d.Mean() != 0 || d.Max() != 0 || d.Min() != 0 {
		t.Fatal("empty summary stats != 0")
	}
}

func TestPercentileBounds(t *testing.T) {
	d := rec(5, 15, 25).All()
	if d.Percentile(-1) != 5 {
		t.Fatal("p<=0 should return min")
	}
	if d.Percentile(200) != 25 {
		t.Fatal("p>=100 should return max")
	}
}

func TestMeanMaxMin(t *testing.T) {
	d := rec(1, 2, 3, 4).All()
	if d.Mean() != 2.5 {
		t.Fatalf("mean = %f, want 2.5", d.Mean())
	}
	if d.Max() != 4 || d.Min() != 1 {
		t.Fatalf("max/min = %d/%d", d.Max(), d.Min())
	}
}

func TestReadWriteSplit(t *testing.T) {
	r := NewRecorder()
	r.Add(Sample{Total: 100, Write: false}, 0)
	r.Add(Sample{Total: 200, Write: true}, 1)
	r.Add(Sample{Total: 300, Write: false}, 2)
	if r.Reads().Len() != 2 {
		t.Fatalf("reads = %d, want 2", r.Reads().Len())
	}
	if r.Writes().Len() != 1 {
		t.Fatalf("writes = %d, want 1", r.Writes().Len())
	}
	if r.Writes().Max() != 200 {
		t.Fatalf("write max = %d, want 200", r.Writes().Max())
	}
	if r.All().Len() != 3 {
		t.Fatalf("all = %d, want 3", r.All().Len())
	}
}

func TestStorageBreakdown(t *testing.T) {
	s := Sample{Total: 1000, NetIn: 100, Queue: 200, Device: 300, NetOut: 400}
	if s.Storage() != 500 {
		t.Fatalf("storage = %d, want 500", s.Storage())
	}
	r := NewRecorder()
	r.Add(s, 0)
	if r.ReadStorage().Max() != 500 {
		t.Fatalf("read storage = %d, want 500", r.ReadStorage().Max())
	}
	if r.WriteStorage().Len() != 0 {
		t.Fatal("write storage should be empty for a read")
	}
}

func TestThroughput(t *testing.T) {
	r := NewRecorder()
	// 11 samples over 1 second: 10 intervals => 10 IOPS.
	for i := 0; i <= 10; i++ {
		r.Add(Sample{Total: 1}, int64(i)*1e8)
	}
	if got := r.Throughput(); got < 9.9 || got > 10.1 {
		t.Fatalf("throughput = %f, want ~10", got)
	}
}

func TestThroughputDegenerate(t *testing.T) {
	r := NewRecorder()
	if r.Throughput() != 0 {
		t.Fatal("empty throughput != 0")
	}
	r.Add(Sample{}, 5)
	if r.Throughput() != 0 {
		t.Fatal("single-sample throughput != 0")
	}
}

func TestRedirectCounting(t *testing.T) {
	r := NewRecorder()
	r.Add(Sample{Redirected: true}, 0)
	r.Add(Sample{}, 1)
	r.Add(Sample{Redirected: true}, 2)
	if r.Redirects() != 2 {
		t.Fatalf("redirects = %d, want 2", r.Redirects())
	}
}

func TestReset(t *testing.T) {
	r := rec(1, 2, 3)
	r.Reset()
	if r.Len() != 0 || r.Throughput() != 0 {
		t.Fatal("reset did not clear recorder")
	}
}

func TestTailCDFDefaults(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i + 1)
	}
	d := rec(vals...).All()
	pts := d.TailCDF()
	if len(pts) != 4 {
		t.Fatalf("default CDF points = %d, want 4", len(pts))
	}
	wantPcts := []float64{98.5, 99, 99.5, 99.9}
	for i, p := range pts {
		if p.Pct != wantPcts[i] {
			t.Errorf("point %d pct = %f, want %f", i, p.Pct, wantPcts[i])
		}
		if p.Latency != int64(wantPcts[i]*10) {
			t.Errorf("P%.1f = %d, want %d", p.Pct, p.Latency, int64(wantPcts[i]*10))
		}
	}
}

func TestFormatters(t *testing.T) {
	if Ms(2_500_000) != "2.50ms" {
		t.Fatalf("Ms = %q", Ms(2_500_000))
	}
	if Us(2_500) != "2.5us" {
		t.Fatalf("Us = %q", Us(2_500))
	}
}

func TestNormalizeAndSpeedup(t *testing.T) {
	if Normalize(50, 100) != 0.5 {
		t.Fatal("normalize")
	}
	if Normalize(50, 0) != 0 {
		t.Fatal("normalize zero base")
	}
	if Speedup(100, 50) != 2 {
		t.Fatal("speedup")
	}
	if Speedup(100, 0) != 0 {
		t.Fatal("speedup zero")
	}
}

// Property: percentiles are monotonically non-decreasing in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(500)
		rc := NewRecorder()
		for i := 0; i < n; i++ {
			rc.Add(Sample{Total: int64(r.Intn(1_000_000))}, int64(i))
		}
		d := rc.All()
		prev := int64(-1)
		for p := 1.0; p <= 100; p += 0.5 {
			v := d.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: P100 equals max, P~0 equals min, and every percentile is a
// member of the sample set (nearest-rank definition).
func TestPercentileMembershipProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		rc := NewRecorder()
		set := map[int64]bool{}
		for i, v := range raw {
			rc.Add(Sample{Total: int64(v)}, int64(i))
			set[int64(v)] = true
		}
		d := rc.All()
		vals := make([]int64, 0, len(raw))
		for _, v := range raw {
			vals = append(vals, int64(v))
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		if d.Percentile(100) != vals[len(vals)-1] {
			return false
		}
		for p := 5.0; p <= 100; p += 10 {
			if !set[d.Percentile(p)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: a Recorder spanning at least three chunks answers exactly as
// one sample slice does — Len, RawSamples order, every distribution's
// percentiles and mean, Throughput and Redirects — and, after Reset,
// refills its kept chunks the same way.
func TestRecorderChunksMatchSliceModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewRecorder()
		chunks := 0
		for _, n := range []int{3*recorderChunk + rng.Intn(recorderChunk), 1 + rng.Intn(2*recorderChunk)} {
			r.Reset()
			var model []Sample
			redirects := 0
			var start, last int64
			for i := 0; i < n; i++ {
				s := Sample{Total: int64(rng.Intn(1e6)), Queue: int64(rng.Intn(1e4)),
					Device: int64(rng.Intn(1e5)), Write: rng.Intn(3) == 0, Redirected: rng.Intn(5) == 0}
				last += int64(rng.Intn(1e4))
				if i == 0 {
					start = last
				}
				r.Add(s, last)
				model = append(model, s)
				if s.Redirected {
					redirects++
				}
			}
			if r.Len() != n || !slices.Equal(RawSamples(r), model) || r.Redirects() != redirects {
				return false
			}
			if chunks == 0 {
				chunks = len(r.chunks)
			} else if len(r.chunks) != chunks {
				return false // the refill after Reset allocated chunks
			}
			wantIOPS := 0.0
			if dur := last - start; dur > 0 && n > 1 {
				wantIOPS = float64(n-1) / (float64(dur) / 1e9)
			}
			if r.Throughput() != wantIOPS {
				return false
			}
			for _, c := range []struct {
				got  Dist
				keep func(Sample) bool
				get  func(Sample) int64
			}{
				{r.All(), func(Sample) bool { return true }, total},
				{r.Reads(), isRead, total},
				{r.Writes(), isWrite, total},
				{r.ReadStorage(), isRead, Sample.Storage},
				{r.WriteStorage(), isWrite, Sample.Storage},
			} {
				var want []int64
				for _, s := range model {
					if c.keep(s) {
						want = append(want, c.get(s))
					}
				}
				slices.Sort(want)
				wantDist := Dist{want}
				if c.got.Len() != len(want) || c.got.Mean() != wantDist.Mean() {
					return false
				}
				for _, p := range []float64{1, 50, 95, 99, 99.9, 100} {
					if c.got.Percentile(p) != wantDist.Percentile(p) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4}); err != nil {
		t.Error(err)
	}
}
