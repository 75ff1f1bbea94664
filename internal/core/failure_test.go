package core

import (
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
