package core

import (
	"errors"
	"testing"

	"rackblox/internal/sim"
)

// TestScenarioValidation walks the timeline validator's rejection rules:
// every rejection is a typed *FailureSpecError naming the Scenario
// field — out-of-range indices, double crashes, revive-before-fail, and
// same-instant fault-domain double-booking — and well-formed timelines
// are accepted.
func TestScenarioValidation(t *testing.T) {
	at := 100 * sim.Millisecond
	later := 200 * sim.Millisecond
	cases := []struct {
		name   string
		mutate func(*Config)
		field  string // "" = must be accepted
	}{
		{"valid fail heal fail cycle", func(c *Config) {
			c.Scenario = []Event{
				FailServer(0, at), ReviveServer(0, later), FailServer(0, 300*sim.Millisecond),
			}
		}, ""},
		{"valid staggered rack then tor", func(c *Config) {
			c.Scenario = []Event{FailRack(0, at), FailToR(1, later)}
		}, ""},
		{"valid revive one server of a crashed rack", func(c *Config) {
			c.Scenario = []Event{FailRack(0, at), ReviveServer(2, later)}
		}, ""},
		{"fail-server out of range", func(c *Config) {
			c.Scenario = []Event{FailServer(99, at)}
		}, "Scenario"},
		{"fail-server negative index", func(c *Config) {
			c.Scenario = []Event{FailServer(-3, at)}
		}, "Scenario"},
		{"fail-rack out of range", func(c *Config) {
			c.Scenario = []Event{FailRack(7, at)}
		}, "Scenario"},
		{"fail-tor out of range", func(c *Config) {
			c.Scenario = []Event{FailToR(7, at)}
		}, "Scenario"},
		{"revive-tor out of range", func(c *Config) {
			c.Scenario = []Event{ReviveToR(7, at)}
		}, "Scenario"},
		{"negative event time", func(c *Config) {
			c.Scenario = []Event{FailServer(0, -1)}
		}, "Scenario"},
		{"double crash without revive", func(c *Config) {
			c.Scenario = []Event{FailServer(0, at), FailServer(0, later)}
		}, "Scenario"},
		{"valid two servers crashed at one instant", func(c *Config) {
			c.Scenario = []Event{FailServer(0, at), FailServer(1, at)}
		}, ""},
		{"same server crashed twice at one instant", func(c *Config) {
			c.Scenario = []Event{FailServer(1, at), FailServer(1, at)}
		}, "Scenario"},
		{"server inside a rack crashed at the same instant", func(c *Config) {
			c.Scenario = []Event{FailRack(0, at), FailServer(1, at)}
		}, "Scenario"},
		{"rack crash covers downed server", func(c *Config) {
			c.Scenario = []Event{FailServer(0, at), FailRack(0, later)}
		}, "Scenario"},
		{"revive before fail", func(c *Config) {
			c.Scenario = []Event{ReviveServer(0, at)}
		}, "Scenario"},
		{"revive at the crash instant", func(c *Config) {
			c.Scenario = []Event{FailServer(0, at), ReviveServer(0, at)}
		}, "Scenario"},
		{"revive-tor of a healthy tor", func(c *Config) {
			c.Scenario = []Event{ReviveToR(0, at)}
		}, "Scenario"},
		{"revive-tor before its fail-tor", func(c *Config) {
			c.Scenario = []Event{FailToR(1, later), ReviveToR(1, at)}
		}, "Scenario"},
		{"revive-tor at the fail-tor instant", func(c *Config) {
			c.Scenario = []Event{FailToR(1, at), ReviveToR(1, at)}
		}, "Scenario"},
		{"valid tor outage then revival", func(c *Config) {
			c.Scenario = []Event{FailToR(1, at), ReviveToR(1, later)}
		}, ""},
		{"tor fails twice while dark", func(c *Config) {
			c.Scenario = []Event{FailToR(0, at), FailToR(0, later)}
		}, "Scenario"},
		{"same-instant rack and tor double-booking", func(c *Config) {
			c.Scenario = []Event{FailRack(1, at), FailToR(1, at)}
		}, "Scenario"},
		{"same-instant tor and rack double-booking", func(c *Config) {
			c.Scenario = []Event{FailToR(1, at), FailRack(1, at)}
		}, "Scenario"},
		{"unknown event kind", func(c *Config) {
			c.Scenario = []Event{{Kind: EventKind(42), Index: 0, At: at}}
		}, "Scenario"},
		{"valid repair SLO on a multi-rack cluster", func(c *Config) {
			c.RepairSLO = RepairSLO{TargetP99: 5 * sim.Millisecond}
		}, ""},
		{"repair SLO on a single rack", func(c *Config) {
			c.Racks = 1
			c.StorageServers = 6
			c.Placement = PlacementCompact
			c.RepairSLO = RepairSLO{TargetP99: 5 * sim.Millisecond}
		}, "RepairSLO"},
	}
	for _, tc := range cases {
		cfg := recoveryConfig()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if tc.field == "" {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		var spec *FailureSpecError
		if !errors.As(err, &spec) {
			t.Errorf("%s: err = %v, want *FailureSpecError", tc.name, err)
			continue
		}
		if spec.Field != tc.field {
			t.Errorf("%s: field = %q, want %q", tc.name, spec.Field, tc.field)
		}
	}
}

// TestServerRevivalCatchUpRestores: a crashed server returns empty
// mid-run, its
// lost chunk holder catches up via the metered reconstructor, and the
// holder is re-registered under its own id — after which no read pays
// the degraded cost.
func TestServerRevivalCatchUpRestores(t *testing.T) {
	cfg := recoveryConfig()
	cfg.Scenario = []Event{
		FailServer(0, 100*sim.Millisecond),
		ReviveServer(0, 250*sim.Millisecond),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerRevivals != 1 {
		t.Fatalf("ServerRevivals = %d, want 1", res.ServerRevivals)
	}
	if res.DegradedReads == 0 {
		t.Fatal("no degraded reads while the holder was down")
	}
	if res.RestoredHolders == 0 {
		t.Fatal("catch-up repair never restored the holder onto the revived server")
	}
	if res.RepairPending != 0 {
		t.Fatalf("%d repair tasks still pending after catch-up", res.RepairPending)
	}
	if res.DegradedReadsPostRepair != 0 {
		t.Fatalf("%d degraded reads after the restore; revived holder not serving directly",
			res.DegradedReadsPostRepair)
	}
	if res.LostReads != 0 {
		t.Fatalf("%d reads lost across the revival lifecycle", res.LostReads)
	}
}

// TestRevivedToRFailsOverCatchingUpHolders: a holder whose server came
// back blank cannot serve its chunks until its catch-up repair lands. A
// ToR that revives meanwhile must replay a failover entry for it, as for
// a dead member, instead of routing its reads to the blank flash.
func TestRevivedToRFailsOverCatchingUpHolders(t *testing.T) {
	for _, red := range []RedundancySpec{ErasureCode(4, 2), LocalParityCode(4, 2)} {
		t.Run(red.String(), func(t *testing.T) {
			cfg := recoveryConfig()
			cfg.Redundancy = red
			revived := 200 * sim.Millisecond
			cfg.Scenario = []Event{
				FailServer(0, 120*sim.Millisecond),
				ReviveServer(0, 160*sim.Millisecond),
				FailToR(0, 165*sim.Millisecond),
				ReviveToR(0, revived),
			}
			r, err := NewRack(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Drive the run by hand so the tables can be read right after
			// the ToR's replay.
			r.stopIssuing = cfg.Warmup + cfg.Duration
			r.startClients()
			r.startGCMonitors()
			r.scheduleScenario()
			r.eng.RunUntil(revived)

			tor := r.tors[0]
			if tor.Down() {
				t.Fatal("ToR 0 still down after its revival")
			}
			catchingUp := 0
			for _, g := range r.groups {
				for i, inst := range g.insts {
					if inst.server.index != 0 {
						continue
					}
					if !g.repairing[i] || g.replacement[i] != nil {
						t.Fatalf("group %d holder %d: catch-up repair no longer outstanding at the ToR revival; the scenario is dead",
							g.idx, i)
					}
					catchingUp++
					if _, ok := tor.FailedOver(inst.id); !ok {
						t.Errorf("group %d holder %d (vSSD %d) is catching up blank, but the revived ToR routes its reads to it",
							g.idx, i, inst.id)
					}
				}
			}
			if catchingUp == 0 {
				t.Fatal("no holder on server 0; test set up wrong")
			}

			// The dark ToR moved each catch-up onto an adopter; the
			// holders still heal.
			r.eng.Run()
			for _, g := range r.groups {
				for i, inst := range g.insts {
					if inst.server.index == 0 && (g.repairing[i] || g.replacement[i] == nil) {
						t.Errorf("group %d holder %d never re-integrated", g.idx, i)
					}
				}
			}
		})
	}
}

// TestRepeatedFailHealCycle exercises what motivates the timeline API:
// the same server fails, heals by catch-up after revival, and fails
// again — the second loss healing through adopter re-integration — and
// the cluster still ends fully healed with zero post-repair stragglers.
func TestRepeatedFailHealCycle(t *testing.T) {
	cfg := recoveryConfig()
	cfg.Duration = 850 * sim.Millisecond
	cfg.Scenario = []Event{
		FailServer(0, 100*sim.Millisecond),
		ReviveServer(0, 300*sim.Millisecond),
		FailServer(0, 600*sim.Millisecond),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerRevivals != 1 {
		t.Fatalf("ServerRevivals = %d, want 1", res.ServerRevivals)
	}
	if res.RestoredHolders == 0 {
		t.Fatal("first heal never restored the revived holder")
	}
	if res.ReintegratedStripes == 0 {
		t.Fatal("no stripes re-integrated across the cycles")
	}
	if res.RepairPending != 0 {
		t.Fatalf("%d repair tasks still pending after the second heal", res.RepairPending)
	}
	if res.DegradedReadsPostRepair != 0 {
		t.Fatalf("%d degraded reads after healing", res.DegradedReadsPostRepair)
	}
	if res.UnrecoverableStripes != 0 || res.LostReads != 0 {
		t.Fatalf("data lost across cycles: unrecov=%d lostReads=%d",
			res.UnrecoverableStripes, res.LostReads)
	}
}

// TestReviveBeforeDetectionIsTransientBlip: a server that returns
// before the heartbeat detector fires was a blip, not an outage — no
// failover may be installed and no repair queued, or reads would be
// steered away from a healthy member forever.
func TestReviveBeforeDetectionIsTransientBlip(t *testing.T) {
	cfg := recoveryConfig()
	cfg.Scenario = []Event{
		FailServer(0, 100*sim.Millisecond),
		ReviveServer(0, 110*sim.Millisecond), // detection would fire at 130ms
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerRevivals != 1 {
		t.Fatalf("ServerRevivals = %d, want 1", res.ServerRevivals)
	}
	if res.Failovers != 0 {
		t.Fatalf("%d failovers installed for a transient blip", res.Failovers)
	}
	if res.ReintegratedStripes != 0 || res.RepairPending != 0 {
		t.Fatalf("repair ran for a transient blip: reintegrated=%d pending=%d",
			res.ReintegratedStripes, res.RepairPending)
	}
}

// TestAdopterCrashMidRepairRestartsRebuild: when the member adopting a
// lost holder's chunks dies itself, the batches already rebuilt onto it
// are gone — the repair must restart from scratch onto a fresh adopter
// (a new reconstructor generation) instead of counting the dead
// adopter's batches toward a replacement that never got them.
func TestAdopterCrashMidRepairRestartsRebuild(t *testing.T) {
	base := recoveryConfig()
	// Probe run (no failures) to learn, deterministically, which member
	// would adopt server 0's holder — adopter choice depends only on
	// group order and reachability, both identical in the real run.
	probe, err := NewRack(base)
	if err != nil {
		t.Fatal(err)
	}
	var holder, adopterSrv int
	var groupIdx = -1
	for gi, g := range probe.groups {
		for i, inst := range g.insts {
			if inst.server.index == 0 {
				groupIdx, holder = gi, i
				adopterSrv = g.adopter(i).server.index
			}
		}
	}
	if groupIdx < 0 {
		t.Fatal("no stripe holder on server 0; test set up wrong")
	}

	cfg := base
	cfg.Duration = 600 * sim.Millisecond
	cfg.Scenario = []Event{
		FailServer(0, 100*sim.Millisecond),
		FailServer(adopterSrv, 160*sim.Millisecond),
	}
	r, err := NewRack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run()
	g := r.groups[groupIdx]
	if gen := g.recon.Gen(holder); gen < 2 {
		t.Fatalf("holder %d repair generation = %d, want >= 2 (restart after adopter death)", holder, gen)
	}
	if repl := g.replacement[holder]; repl == nil || !repl.server.reachable() {
		t.Fatalf("holder %d replacement missing or unreachable after restart", holder)
	}
	if res.RepairPending != 0 {
		t.Fatalf("%d repair tasks never completed", res.RepairPending)
	}
	if res.DegradedReadsPostRepair != 0 {
		t.Fatalf("%d degraded reads after the restarted repair healed", res.DegradedReadsPostRepair)
	}
	if res.UnrecoverableStripes != 0 {
		t.Fatalf("%d stripes unrecoverable; two crashes are within the m=2 budget", res.UnrecoverableStripes)
	}
}

// TestRapidFailReviveFailHonorsDetectionWindow: a detection timer armed
// by one crash must not fire for a later one. Here the server crashes,
// revives, crashes again, and revives again — all before either crash's
// three-missed-heartbeats detector could legitimately fire — so both
// outages are transient blips and no failover may be installed. (The
// first crash's timer at 130ms would otherwise see the second outage's
// failed flag and detect it 20ms early.)
func TestRapidFailReviveFailHonorsDetectionWindow(t *testing.T) {
	cfg := recoveryConfig()
	cfg.Scenario = []Event{
		FailServer(0, 100*sim.Millisecond),
		ReviveServer(0, 110*sim.Millisecond),
		FailServer(0, 120*sim.Millisecond), // its own detector fires at 150ms
		ReviveServer(0, 145*sim.Millisecond),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerRevivals != 2 {
		t.Fatalf("ServerRevivals = %d, want 2", res.ServerRevivals)
	}
	if res.Failovers != 0 {
		t.Fatalf("%d failovers installed; a stale detection timer fired for the second outage", res.Failovers)
	}
	if res.ReintegratedStripes != 0 || res.RepairPending != 0 {
		t.Fatalf("repair ran for transient blips: reintegrated=%d pending=%d",
			res.ReintegratedStripes, res.RepairPending)
	}

	// Same property for ToR outages: the revived-then-darkened-again
	// switch must not be detected by the first outage's timer.
	cfg = recoveryConfig()
	cfg.Scenario = []Event{
		FailToR(1, 100*sim.Millisecond),
		ReviveToR(1, 110*sim.Millisecond),
		FailToR(1, 120*sim.Millisecond),
		ReviveToR(1, 145*sim.Millisecond),
	}
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ToRRevivals != 2 {
		t.Fatalf("ToRRevivals = %d, want 2", res.ToRRevivals)
	}
	if res.Failovers != 0 {
		t.Fatalf("%d failovers installed for transient ToR blips", res.Failovers)
	}
}

// TestReplicationRevivalRepairs covers the replication backend's half
// of server revival: the survivor re-admits the revived peer to its
// Hermes group (AddPeer), so post-revival writes are replicated to both
// members again instead of committing alone forever.
func TestReplicationRevivalRepairs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Warmup = 50 * sim.Millisecond
	cfg.Duration = 500 * sim.Millisecond
	cfg.Scenario = []Event{
		FailServer(0, 100*sim.Millisecond),
		ReviveServer(0, 300*sim.Millisecond),
	}
	r, err := NewRack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run()
	if res.ServerRevivals != 1 {
		t.Fatalf("ServerRevivals = %d, want 1", res.ServerRevivals)
	}
	if res.Failovers == 0 {
		t.Fatal("crash was never detected")
	}
	repaired := 0
	for _, pr := range r.pairs {
		for _, inst := range pr.insts {
			if inst.server != r.servers[0] {
				continue
			}
			partner := inst.partner
			if got := len(partner.repl.Peers()); got != 2 {
				t.Errorf("pair %d: survivor has %d peers after revival, want 2 (AddPeer missing)",
					pr.idx, got)
			}
			if got := len(inst.repl.Peers()); got != 2 {
				t.Errorf("pair %d: revived node has %d peers, want 2", pr.idx, got)
			}
			repaired++
		}
	}
	if repaired == 0 {
		t.Fatal("no pair instance lives on the revived server; test set up wrong")
	}
	if res.Recorder.Len() < 3000 {
		t.Fatalf("only %d samples; rack did not keep serving through the cycle", res.Recorder.Len())
	}
}
