package core

import (
	"testing"

	"rackblox/internal/sim"
)

// ecConfig is a compact RS(4,2) rack: 6 servers, 4 stripe groups of 6
// chunk holders, one holder per server per group (8 channels / 2 per
// vSSD = 4 instances per server).
func ecConfig() Config {
	cfg := DefaultConfig()
	cfg.StorageServers = 6
	cfg.Redundancy = ErasureCode(4, 2)
	cfg.Duration = 300 * sim.Millisecond
	return cfg
}

func TestECRunCompletes(t *testing.T) {
	res, err := Run(ecConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Recorder.Len() == 0 {
		t.Fatal("no samples recorded")
	}
	if res.Recorder.Reads().P999() <= 0 || res.Recorder.Writes().P999() <= 0 {
		t.Fatal("empty latency distributions")
	}
	// Every logical write fans out to 1 data + 2 parity sub-writes.
	if res.ECSubWrites == 0 {
		t.Fatal("no erasure-coded sub-writes counted")
	}
	if res.LostRequests != 0 {
		t.Fatalf("lost %d requests without any failure", res.LostRequests)
	}
}

func TestECValidation(t *testing.T) {
	cfg := ecConfig()
	cfg.StorageServers = 5 // RS(4,2) needs 6 distinct servers
	if _, err := Run(cfg); err == nil {
		t.Fatal("RS(4,2) on 5 servers accepted")
	}
	cfg = ecConfig()
	cfg.Redundancy = ErasureCode(4, 0)
	if _, err := Run(cfg); err == nil {
		t.Fatal("m=0 accepted")
	}
	cfg = ecConfig()
	cfg.SoftwareIsolated = true
	if _, err := Run(cfg); err == nil {
		t.Fatal("software isolation + EC accepted")
	}
}

// TestECDegradedReadsUnderGC drives a write-heavy mix so chunk holders
// collect garbage, and checks that reads steered away from collectors
// complete via reconstruction.
func TestECDegradedReadsUnderGC(t *testing.T) {
	cfg := ecConfig()
	cfg.Workload.WriteFrac = 0.8
	cfg.Duration = 400 * sim.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.GCEvents == 0 {
		t.Skip("no GC under this compressed horizon; nothing to assert")
	}
	if res.Switch.DegradedRedirects > 0 && res.DegradedReads == 0 {
		t.Fatalf("switch redirected %d reads but none completed degraded",
			res.Switch.DegradedRedirects)
	}
}

// TestECSurvivesMServerFailures is the acceptance scenario: with m=2
// servers crashed mid-run, every read still succeeds (degraded
// reconstruction from the k survivors), and the background reconstructor
// repairs lost chunks in GC idle windows.
func TestECSurvivesMServerFailures(t *testing.T) {
	cfg := ecConfig()
	cfg.Duration = 500 * sim.Millisecond
	at := cfg.Warmup + 100*sim.Millisecond
	cfg.Scenario = []Event{FailServer(0, at), FailServer(1, at)}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failovers == 0 {
		t.Fatal("failure never detected")
	}
	if res.DegradedReads == 0 {
		t.Fatal("no degraded reads despite two dead chunk holders")
	}
	if res.LostReads != 0 {
		t.Fatalf("%d reads lost; all must succeed via reconstruction", res.LostReads)
	}
	if res.UnrecoverableReads != 0 {
		t.Fatalf("%d unrecoverable reads with only m failures", res.UnrecoverableReads)
	}
	if res.RepairedStripes == 0 {
		t.Fatal("reconstructor never repaired a stripe")
	}
	t.Logf("degraded=%d retransmits=%d repaired=%d pending=%d repair-delayed=%d",
		res.DegradedReads, res.ECRetransmits, res.RepairedStripes,
		res.RepairPending, res.RepairDelayed)
}

// TestECMPlusOneFailuresSurfaceLoss: losing m+1 chunk holders of a
// stripe makes its data unrecoverable, which the counters must expose
// rather than hide.
func TestECMPlusOneFailuresSurfaceLoss(t *testing.T) {
	cfg := ecConfig()
	cfg.Duration = 400 * sim.Millisecond
	at := cfg.Warmup + 50*sim.Millisecond
	cfg.Scenario = []Event{FailServer(0, at), FailServer(1, at), FailServer(2, at)}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.UnrecoverableReads == 0 {
		t.Fatal("m+1 failures produced no unrecoverable reads")
	}
}

// TestECDeterminism: same seed, same counters.
func TestECDeterminism(t *testing.T) {
	cfg := ecConfig()
	cfg.Duration = 200 * sim.Millisecond
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Recorder.Len() != b.Recorder.Len() || a.ECSubWrites != b.ECSubWrites ||
		a.GCEvents != b.GCEvents || a.Events != b.Events {
		t.Fatalf("nondeterministic: %d/%d samples, %d/%d subwrites, %d/%d gc, %d/%d events",
			a.Recorder.Len(), b.Recorder.Len(), a.ECSubWrites, b.ECSubWrites,
			a.GCEvents, b.GCEvents, a.Events, b.Events)
	}
}
