package core

import (
	"math/rand"
	"testing"

	"rackblox/internal/sim"
)

// TestPacedRepairAlwaysCompletes is the pacer's no-starvation property
// test: for random SLO targets (including absurdly tight ones the
// controller can never satisfy), random spine capacities, and random
// fail/revive/fail-again timelines, repair always drains — the 1 MB/s
// floor guarantees progress no matter how hard the AIMD loop backs off
// — and the spine byte counters reconcile exactly once the run has
// drained.
func TestPacedRepairAlwaysCompletes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := recoveryConfig()
	// Spread placement leaves some servers without a chunk holder (3
	// groups x 6 members land 1 2 2 1 0 0 per rack); only a crash of a
	// server that hosts one queues repair work.
	hosted := make([]bool, cfg.totalServers())
	for g := 0; g < cfg.VSSDPairs; g++ {
		for _, s := range cfg.placer().Place(g) {
			hosted[s] = true
		}
	}
	var hosts []int
	for s, ok := range hosted {
		if ok {
			hosts = append(hosts, s)
		}
	}
	for i := 0; i < 6; i++ {
		cfg := recoveryConfig()
		cfg.Seed = int64(1000 + i)
		cfg.Duration = 300 * sim.Millisecond
		cfg.CrossRackMBps = 40 + rng.Float64()*160
		// 0.1ms..20ms: the low end is tighter than any read the cluster
		// can serve, pinning the rate at the floor.
		cfg.RepairSLO = RepairSLO{TargetP99: sim.Time(100+rng.Intn(20_000)) * sim.Microsecond}

		victim := hosts[rng.Intn(len(hosts))]
		failAt := sim.Time(60+rng.Intn(60)) * sim.Millisecond
		reviveAt := failAt + sim.Time(120+rng.Intn(80))*sim.Millisecond
		events := []Event{FailServer(victim, failAt)}
		switch rng.Intn(3) {
		case 1:
			events = append(events, ReviveServer(victim, reviveAt))
		case 2:
			events = append(events, ReviveServer(victim, reviveAt),
				FailServer(victim, reviveAt+60*sim.Millisecond))
		}
		cfg.Scenario = events

		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if res.RepairPending != 0 {
			t.Errorf("case %d (slo %+v, events %v): %d repair tasks starved",
				i, cfg.RepairSLO, events, res.RepairPending)
		}
		if res.RepairedStripes == 0 {
			t.Errorf("case %d: crash of server %d repaired no stripes", i, victim)
		}
		if res.RepairCompletionTime <= 0 {
			t.Errorf("case %d: repair completion time %d, want a finite instant",
				i, res.RepairCompletionTime)
		}
		if res.CrossRackRepairBytes != res.CrossRackRepairBytesOffered {
			t.Errorf("case %d: drained run left repair bytes unreconciled: delivered %d offered %d",
				i, res.CrossRackRepairBytes, res.CrossRackRepairBytesOffered)
		}
		if res.ForegroundCrossRackBytes != res.ForegroundCrossRackBytesOffered {
			t.Errorf("case %d: drained run left foreground bytes unreconciled: delivered %d offered %d",
				i, res.ForegroundCrossRackBytes, res.ForegroundCrossRackBytesOffered)
		}
		if f := res.SLOViolationFraction; f < 0 || f > 1 {
			t.Errorf("case %d: violation fraction %f outside [0,1]", i, f)
		}
		if len(res.RepairRateTimeline) == 0 {
			t.Errorf("case %d: empty rate timeline with pacing enabled", i)
		}
		for _, pt := range res.RepairRateTimeline {
			if pt.MBps < pacerMinRateMBps-1e-9 || pt.MBps > cfg.CrossRackMBps+1e-9 {
				t.Errorf("case %d: rate %f escaped bounds [%d, %f]",
					i, pt.MBps, pacerMinRateMBps, cfg.CrossRackMBps)
			}
		}
	}
}

// TestSpineByteCountersReconcileMidRun is the regression test for the
// enqueue-time byte accounting bug, which counted spine bytes as moved
// once their transfer was reserved. The Spine counts delivered bytes in
// each transfer's completion record, so stopping the engine mid-run must
// show delivered <= offered — strictly less while a repair batch is on
// the wire — and draining the engine reconciles the two exactly.
func TestSpineByteCountersReconcileMidRun(t *testing.T) {
	cfg := recoveryConfig()
	cfg.Duration = 200 * sim.Millisecond
	cfg.Scenario = []Event{FailServer(0, 60*sim.Millisecond)}
	r, err := NewRack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the run by hand so the clock can stop mid-transfer.
	r.stopIssuing = cfg.Warmup + cfg.Duration
	r.startClients()
	r.startGCMonitors()
	r.scheduleScenario()

	sp := r.spine
	sawInFlight := false
	for now := 60 * sim.Millisecond; now <= 500*sim.Millisecond; now += sim.Millisecond {
		r.eng.RunUntil(now)
		if sp.crossRepairBytes > sp.crossRepairOffered {
			t.Fatalf("at %d: repair delivered %d > offered %d",
				now, sp.crossRepairBytes, sp.crossRepairOffered)
		}
		if sp.foregroundBytes > sp.foregroundOffered {
			t.Fatalf("at %d: foreground delivered %d > offered %d",
				now, sp.foregroundBytes, sp.foregroundOffered)
		}
		if sp.crossRepairBytes < sp.crossRepairOffered {
			sawInFlight = true
			break
		}
	}
	if !sawInFlight {
		t.Error("never observed a repair transfer in flight; the regression scenario is dead")
	}
	if sp.crossRepairOffered == 0 {
		t.Fatal("the crash queued no cross-rack repair traffic")
	}

	r.eng.Run() // drain
	if sp.crossRepairBytes != sp.crossRepairOffered {
		t.Errorf("drained repair bytes unreconciled: delivered %d offered %d",
			sp.crossRepairBytes, sp.crossRepairOffered)
	}
	if sp.foregroundBytes != sp.foregroundOffered {
		t.Errorf("drained foreground bytes unreconciled: delivered %d offered %d",
			sp.foregroundBytes, sp.foregroundOffered)
	}
	if sp.crossRepairBytes == 0 || sp.foregroundBytes == 0 {
		t.Errorf("spine moved no bytes: repair %d foreground %d",
			sp.crossRepairBytes, sp.foregroundBytes)
	}
}
