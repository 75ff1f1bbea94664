package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"rackblox/internal/sim"
	"rackblox/internal/stats"
)

// failConfig injects a crash of server 0 a third of the way into the run.
func failConfig() Config {
	cfg := DefaultConfig()
	cfg.System = RackBlox
	cfg.Warmup = 50 * sim.Millisecond
	cfg.Duration = 700 * sim.Millisecond
	cfg.Scenario = []Event{FailServer(0, 250*sim.Millisecond)}
	return cfg
}

func TestServerFailureFailsOver(t *testing.T) {
	res, err := Run(failConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Failovers == 0 {
		t.Fatal("failure never detected")
	}
	if res.Switch.FailedOver == 0 {
		t.Fatal("switch never rewrote traffic for the dead server")
	}
	// Requests in flight to the dead server are bounded losses.
	if res.LostRequests == 0 {
		t.Error("no requests lost at the moment of the crash; suspicious")
	}
	if res.LostRequests > 200 {
		t.Errorf("%d requests lost; failover not containing the blast radius",
			res.LostRequests)
	}
	// Service continues: plenty of completions after the failure.
	if res.Recorder.Len() < 5000 {
		t.Errorf("only %d samples; rack did not keep serving", res.Recorder.Len())
	}
}

func TestServiceContinuesAfterFailure(t *testing.T) {
	res, err := Run(failConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Late samples (completing after detection) must exist and stay sane.
	late := 0
	for _, s := range stats.RawSamples(res.Recorder) {
		if s.Total > 0 && !s.Write {
			late++
		}
	}
	if late < 1000 {
		t.Fatalf("only %d read completions total", late)
	}
	if p := res.Recorder.Reads().P50(); p <= 0 || p > int64(50*sim.Millisecond) {
		t.Fatalf("post-failure read P50 = %d ns implausible", p)
	}
}

func TestNoFailureByDefault(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 200 * sim.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failovers != 0 || res.LostRequests != 0 {
		t.Fatalf("failovers=%d lost=%d without injection", res.Failovers, res.LostRequests)
	}
}

func TestFailureUnderVDCKeepsRunning(t *testing.T) {
	// VDC has no switch failover path in the paper; the simulation still
	// detects the failure and degrades replication so writes commit.
	cfg := failConfig()
	cfg.System = VDC
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recorder.Len() < 3000 {
		t.Fatalf("VDC stopped serving after failure: %d samples", res.Recorder.Len())
	}
}

func TestFailureOfReplicaServerOnly(t *testing.T) {
	// Crash server 1, which hosts replicas of pair 0 and the primary of
	// pair 2 (round-robin placement) — both directions must fail over.
	cfg := failConfig()
	cfg.Scenario = []Event{FailServer(1, 250*sim.Millisecond)}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failovers == 0 {
		t.Fatal("no failover for replica-hosting server")
	}
	if res.Recorder.Len() < 5000 {
		t.Fatalf("only %d samples", res.Recorder.Len())
	}
}

// TestReplicatedClusterOutages drives a replicated two-rack cluster
// through a ToR outage with revival and through the loss of both copies
// of one pair. Pairs sit on servers 2p and 2p+1 of a 2×3 layout, so pair
// 1 straddles the racks: primary on server 2 (rack 0), replica on server
// 3 (rack 1). Each timeline must replay identically at its seed.
func TestReplicatedClusterOutages(t *testing.T) {
	base := DefaultConfig()
	base.Racks = 2
	base.StorageServers = 3
	base.VSSDPairs = 3
	base.Warmup = 50 * sim.Millisecond
	base.Duration = 350 * sim.Millisecond
	ms := sim.Millisecond

	// (a) Rack 0 goes dark while one of its servers is already down.
	// Once the ToR failure is detected the client enters pair 1 through
	// the replica's rack, whose ToR rewrites the dark primary's traffic;
	// the revived ToR replays every rack-0 registration.
	cfg := base
	cfg.Scenario = []Event{FailServer(0, 100*ms), FailToR(0, 120*ms), ReviveToR(0, 300*ms)}
	r, res := runReplayed(t, cfg)
	if got := r.tors[1].Stats().FailedOver; got == 0 {
		t.Error("rack 1's ToR rewrote no traffic for pair 1's dark primary")
	}
	if res.ToRRevivals != 1 || r.tors[0].Down() {
		t.Fatalf("ToRRevivals = %d, ToR 0 down = %v; want one revival", res.ToRRevivals, r.tors[0].Down())
	}
	for _, inst := range r.insts {
		if inst.server.rackIdx == 0 && !r.tors[0].Registered(inst.id) {
			t.Errorf("revived ToR lost the registration of vSSD %d", inst.id)
		}
	}

	// (b) Both copies of pair 1 crash; the primary's server returns
	// while the replica's is still down, so it serves the pair alone.
	cfg = base
	cfg.Scenario = []Event{FailServer(2, 100*ms), FailServer(3, 110*ms), ReviveServer(2, 250*ms)}
	if _, res := runReplayed(t, cfg); res.ServerRevivals != 1 {
		t.Fatalf("ServerRevivals = %d, want 1", res.ServerRevivals)
	}
}

// runReplayed runs cfg, checks that a second same-seed run reproduces its
// Result and latency samples byte for byte, and returns the first run.
func runReplayed(t *testing.T, cfg Config) (*Rack, *Result) {
	t.Helper()
	r, err := NewRack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run()
	first, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := json.Marshal(stats.RawSamples(res.Recorder))
	if err != nil {
		t.Fatal(err)
	}
	if again := runBytes(t, cfg); !bytes.Equal(append(first, samples...), again) {
		t.Fatalf("same-seed run diverged: %v", cfg.Scenario)
	}
	return r, res
}
