package core

import (
	"math/rand"
	"sort"
	"testing"

	"rackblox/internal/flash"
	"rackblox/internal/sim"
)

// recoveryConfig is the lifecycle test cluster: three racks of six
// servers, RS(4,2) spread placement, fast devices so reconstruction and
// re-integration complete well inside the horizon.
func recoveryConfig() Config {
	cfg := DefaultConfig()
	cfg.System = RackBlox
	cfg.Racks = 3
	cfg.StorageServers = 6
	cfg.VSSDPairs = 3
	cfg.Redundancy = ErasureCode(4, 2)
	cfg.Placement = PlacementSpread
	cfg.Device = flash.ProfileOptane()
	cfg.Workload.WriteFrac = 0.2
	cfg.KeyspaceFrac = 0.25
	cfg.MaxClientInflight = 256
	cfg.Warmup = 50 * sim.Millisecond
	cfg.Duration = 450 * sim.Millisecond
	return cfg
}

// TestServerCrashReintegrates closes the loop on a server crash: the
// reconstructor rebuilds the lost chunks, the replacement holder is
// re-registered in the switch stripe tables, and no read issued after
// re-integration pays the degraded cost for an unreachable home.
func TestServerCrashReintegrates(t *testing.T) {
	cfg := recoveryConfig()
	cfg.Scenario = []Event{FailServer(0, 100*sim.Millisecond)}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradedReads == 0 {
		t.Fatal("no degraded reads before re-integration")
	}
	if res.ReintegratedStripes == 0 {
		t.Fatal("repair completed nothing; no stripes re-integrated")
	}
	if res.RepairPending != 0 {
		t.Fatalf("%d repair tasks still pending at end of run", res.RepairPending)
	}
	if res.DegradedReadsPostRepair != 0 {
		t.Fatalf("%d degraded reads after re-integration; replacement not serving directly",
			res.DegradedReadsPostRepair)
	}
	if res.Switch.Reintegrated == 0 {
		t.Fatal("no packets were rewritten to the replacement holder")
	}
	if res.LostReads != 0 {
		t.Fatalf("%d reads lost across the lifecycle", res.LostReads)
	}
}

// TestToRRevivalClearsSiblingState is the regression for the stale
// remote-dead bug: before revival existed, a FailToR outage left every
// sibling ToR's MarkRemoteDead entries (and the failover rewrites for
// the darkened members) in place forever. The first half captures that
// stale-state behavior; the second asserts revival clears it everywhere.
func TestToRRevivalClearsSiblingState(t *testing.T) {
	darkRack := 1
	darkAt := 100 * sim.Millisecond
	base := recoveryConfig()
	base.Scenario = []Event{FailToR(darkRack, darkAt)}

	// Without revival: sibling ToRs keep the dark rack's members marked
	// remote-dead and failed-over long after the run ends — the stale
	// state the revival path exists to clear.
	r, err := NewRack(base)
	if err != nil {
		t.Fatal(err)
	}
	r.Run()
	var darkMembers []uint32
	for _, g := range r.groups {
		for _, m := range g.insts {
			if m.server.rackIdx == darkRack {
				darkMembers = append(darkMembers, m.id)
			}
		}
	}
	if len(darkMembers) == 0 {
		t.Fatal("no stripe members in the darkened rack")
	}
	stale := 0
	for j := 0; j < base.Racks; j++ {
		if j == darkRack {
			continue
		}
		for _, id := range darkMembers {
			if r.tors[j].RemoteDead(id) {
				stale++
			}
		}
	}
	if stale == 0 {
		t.Fatal("expected stale remote-dead marks without revival (regression baseline)")
	}

	// With revival: every sibling mark is cleared and the revived ToR
	// serves its rack directly again.
	cfg := base
	cfg.Scenario = []Event{FailToR(darkRack, darkAt), ReviveToR(darkRack, 250*sim.Millisecond)}
	r2, err := NewRack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := r2.Run()
	if res.ToRRevivals != 1 {
		t.Fatalf("ToRRevivals = %d, want 1", res.ToRRevivals)
	}
	for j := 0; j < cfg.Racks; j++ {
		if j == darkRack {
			continue
		}
		for _, id := range darkMembers {
			if r2.tors[j].RemoteDead(id) {
				t.Fatalf("ToR %d still marks member %d remote-dead after revival", j, id)
			}
		}
	}
	if r2.tors[darkRack].Down() {
		t.Fatal("revived ToR still down")
	}
	if res.DegradedReadsPostRepair != 0 {
		t.Fatalf("%d degraded reads for unreachable homes after revival", res.DegradedReadsPostRepair)
	}
}

// TestReviveToRNoFailureIsNoOp: reviving a ToR that never failed (or
// reviving twice) must change nothing and report false.
func TestReviveToRNoFailureIsNoOp(t *testing.T) {
	cfg := recoveryConfig()
	cfg.Duration = 100 * sim.Millisecond
	r, err := NewRack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.ReviveToR(0) {
		t.Fatal("reviving a healthy ToR reported work done")
	}
	if r.ReviveToR(-1) || r.ReviveToR(99) {
		t.Fatal("out-of-range revival reported work done")
	}
	r.failToR(2)
	if !r.ReviveToR(2) {
		t.Fatal("first revival of a failed ToR did nothing")
	}
	if r.ReviveToR(2) {
		t.Fatal("second revival of the same ToR reported work done")
	}
	res := r.Run()
	if res.LostRequests != 0 {
		t.Fatalf("revival no-ops lost %d requests", res.LostRequests)
	}
	if res.ToRRevivals != 1 {
		t.Fatalf("ToRRevivals = %d, want 1", res.ToRRevivals)
	}
}

// TestRecoveryLifecycleProperty is the randomized acceptance property:
// for any within-budget failure spec (up to m server crashes, or a
// whole-rack crash under spread placement), a full run ends with every
// lost chunk repaired and re-integrated, no read lost, no stripe
// unrecoverable, and not a single degraded read issued after
// re-integration — i.e. fresh reads of every stripe are served
// directly again. The byte-level twin of this property (repaired chunks
// identical to the original payload) lives in
// internal/ec TestRepairReintegrationByteIdentity.
func TestRecoveryLifecycleProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple end-to-end runs")
	}
	const failAt = 100 * sim.Millisecond
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		cfg := recoveryConfig()
		cfg.Seed = int64(100 + trial)
		k := 2 + rng.Intn(3) // 2..4
		m := 1 + rng.Intn(2) // 1..2
		cfg.Redundancy = ErasureCode(k, m)
		// Spread placement caps racks at m chunks per stripe, so it needs
		// ceil((k+m)/m) <= Racks fault domains to place a group at all.
		spreadOK := (k+m+m-1)/m <= cfg.Racks
		wholeRack := rng.Intn(2) == 0 && m >= 2 && spreadOK
		if wholeRack {
			// Spread placement keeps every rack at <= m chunks, so one
			// rack crash stays within the redundancy budget.
			cfg.Placement = PlacementSpread
			cfg.Scenario = []Event{FailRack(rng.Intn(cfg.Racks), failAt)}
		} else {
			if !spreadOK || rng.Intn(2) == 0 {
				cfg.Placement = PlacementCompact
			}
			// Up to m distinct server crashes: group members sit on
			// distinct servers, so no group loses more than m chunks.
			total := cfg.Racks * cfg.StorageServers
			crashes := 1 + rng.Intn(m)
			seen := map[int]bool{}
			for len(seen) < crashes {
				seen[rng.Intn(total)] = true
			}
			// Sorted, so same-instant crashes enter the engine in one
			// order on every run and a failing trial replays exactly.
			idxs := make([]int, 0, len(seen))
			for idx := range seen {
				idxs = append(idxs, idx)
			}
			sort.Ints(idxs)
			for _, idx := range idxs {
				cfg.Scenario = append(cfg.Scenario, FailServer(idx, failAt))
			}
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("trial %d (k=%d m=%d rack=%v): %v", trial, k, m, wholeRack, err)
		}
		if res.UnrecoverableStripes != 0 || res.LostReads != 0 {
			t.Errorf("trial %d (k=%d m=%d rack=%v): lost data: unrecov=%d lostReads=%d",
				trial, k, m, wholeRack, res.UnrecoverableStripes, res.LostReads)
		}
		if res.RepairPending != 0 {
			t.Errorf("trial %d: %d repair tasks never completed", trial, res.RepairPending)
		}
		if res.RepairedStripes > 0 && res.ReintegratedStripes == 0 {
			t.Errorf("trial %d: stripes repaired but nothing re-integrated", trial)
		}
		if res.DegradedReadsPostRepair != 0 {
			t.Errorf("trial %d: %d degraded reads after re-integration", trial,
				res.DegradedReadsPostRepair)
		}
	}
}

// TestPostRepairSkipsGCSteeredReads replays the 40-cycle fail/revive
// cluster at two seeds where a ToR steered a read away from a holder
// restored onto its revived server because the holder was collecting,
// and the coordinator started the reconstruction after the GC burst had
// ended. Such a read is legitimate GC steering, not a straggler:
// DegradedReadsPostRepair must judge it by why the ToR steered it, not
// by the holder's GC state when the reconstruction starts.
func TestPostRepairSkipsGCSteeredReads(t *testing.T) {
	for _, seed := range []int64{1, 5} {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Racks = 3
		cfg.StorageServers = 6
		cfg.VSSDPairs = 3
		cfg.Redundancy = ErasureCode(4, 2)
		cfg.Placement = PlacementSpread
		cfg.CrossRackMBps = 80
		cfg.Device = flash.ProfileOptane()
		cfg.Workload.WriteFrac = 0.2
		cfg.Workload.MeanGap = 400 * sim.Microsecond
		cfg.KeyspaceFrac = 0.25
		cfg.MaxClientInflight = 256
		cfg.RepairSLO = RepairSLO{TargetP99: 6 * sim.Millisecond}
		cfg.Duration = 40*sim.Second + 500*sim.Millisecond
		// Server 7i+i/3 mod 18 fails in cycle i and returns 200ms later.
		for i := 0; i < 40; i++ {
			at := sim.Time(i)*sim.Second + 120*sim.Millisecond
			server := (7*i + i/3) % 18
			cfg.Scenario = append(cfg.Scenario,
				FailServer(server, at), ReviveServer(server, at+200*sim.Millisecond))
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.RestoredHolders == 0 || res.DegradedReads == 0 {
			t.Fatalf("seed %d: %d restored holders, %d degraded reads; the scenario no longer exercises catch-up repair",
				seed, res.RestoredHolders, res.DegradedReads)
		}
		if res.DegradedReadsPostRepair != 0 {
			t.Errorf("seed %d: %d degraded reads counted after re-integration", seed, res.DegradedReadsPostRepair)
		}
	}
}
