package netsim

import (
	"sort"
	"testing"

	"rackblox/internal/sim"
)

func sampleMany(n *Network, count int) []sim.Time {
	out := make([]sim.Time, count)
	now := sim.Time(0)
	for i := range out {
		out[i] = n.HopLatency(now)
		now += 100 * sim.Microsecond
	}
	return out
}

func median(v []sim.Time) sim.Time {
	c := append([]sim.Time(nil), v...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c[len(c)/2]
}

func TestProfilesOrdered(t *testing.T) {
	f, m, s := ProfileFast(), ProfileMedium(), ProfileSlow()
	if !(f.MedianNS < m.MedianNS && m.MedianNS < s.MedianNS) {
		t.Fatal("profile medians not ordered Fast < Medium < Slow")
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"Fast", "Medium", "Slow"} {
		p, err := ProfileByName(name)
		if err != nil || p.Name != name {
			t.Errorf("ProfileByName(%q) = %+v, %v", name, p, err)
		}
	}
	if _, err := ProfileByName("warp"); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestMedianNearProfile(t *testing.T) {
	for _, prof := range []Profile{ProfileFast(), ProfileMedium(), ProfileSlow()} {
		n := New(prof, sim.NewRNG(1))
		med := float64(median(sampleMany(n, 20000)))
		if med < 0.7*prof.MedianNS || med > 1.6*prof.MedianNS {
			t.Errorf("%s: sample median %f vs profile %f", prof.Name, med, prof.MedianNS)
		}
	}
}

func TestLatencyFloor(t *testing.T) {
	n := New(ProfileFast(), sim.NewRNG(2))
	for _, v := range sampleMany(n, 5000) {
		if v < 1000 {
			t.Fatalf("hop latency %d below 1us floor", v)
		}
	}
}

func TestHeavyTailExists(t *testing.T) {
	n := New(ProfileMedium(), sim.NewRNG(3))
	v := sampleMany(n, 20000)
	med := median(v)
	big := 0
	for _, x := range v {
		if x > 5*med {
			big++
		}
	}
	if big == 0 {
		t.Fatal("no heavy-tail samples observed")
	}
}

func TestCongestionRaisesLatency(t *testing.T) {
	n := New(ProfileFast(), sim.NewRNG(4))
	var congested, clear []sim.Time
	now := sim.Time(0)
	for i := 0; i < 200000 && (len(congested) < 500 || len(clear) < 500); i++ {
		c := n.Congested(now)
		l := n.HopLatency(now)
		if c {
			congested = append(congested, l)
		} else {
			clear = append(clear, l)
		}
		now += 20 * sim.Microsecond
	}
	if len(congested) < 100 {
		t.Fatalf("only %d congested samples; episodes not occurring", len(congested))
	}
	if median(congested) < 3*median(clear) {
		t.Fatalf("congested median %d not clearly above clear median %d",
			median(congested), median(clear))
	}
}

func TestCongestionEpisodesEnd(t *testing.T) {
	n := New(ProfileSlow(), sim.NewRNG(5))
	sawCongested, sawClear := false, false
	now := sim.Time(0)
	for i := 0; i < 100000; i++ {
		if n.Congested(now) {
			sawCongested = true
		} else {
			sawClear = true
		}
		now += 50 * sim.Microsecond
	}
	if !sawCongested || !sawClear {
		t.Fatalf("congested=%v clear=%v; both states must occur", sawCongested, sawClear)
	}
}

func TestPathLatencySumsHops(t *testing.T) {
	n := New(ProfileFast(), sim.NewRNG(6))
	one := float64(median(sampleMany(n, 5000)))
	n2 := New(ProfileFast(), sim.NewRNG(7))
	var paths []sim.Time
	now := sim.Time(0)
	for i := 0; i < 5000; i++ {
		paths = append(paths, n2.PathLatency(now, 2))
		now += 100 * sim.Microsecond
	}
	two := float64(median(paths))
	if two < 1.5*one || two > 3*one {
		t.Fatalf("2-hop median %f vs 1-hop median %f; want roughly double", two, one)
	}
}

func TestDeterminism(t *testing.T) {
	a := New(ProfileMedium(), sim.NewRNG(42))
	b := New(ProfileMedium(), sim.NewRNG(42))
	now := sim.Time(0)
	for i := 0; i < 1000; i++ {
		if a.HopLatency(now) != b.HopLatency(now) {
			t.Fatal("same seed produced different latencies")
		}
		now += 10 * sim.Microsecond
	}
}
