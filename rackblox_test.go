package rackblox

import (
	"testing"
	"time"
)

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestPublicRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.System = SystemRackBlox
	cfg.Duration = 200 * int64(time.Millisecond)
	cfg.Warmup = 50 * int64(time.Millisecond)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recorder.Len() == 0 {
		t.Fatal("no samples")
	}
	if res.Recorder.Reads().P999() <= 0 {
		t.Fatal("no read tail")
	}
}

func TestSystemsExported(t *testing.T) {
	sys := Systems()
	if len(sys) != 4 {
		t.Fatalf("systems = %d", len(sys))
	}
	if sys[0] != SystemVDC || sys[3] != SystemRackBlox {
		t.Fatal("system order")
	}
}

func TestProfilesExported(t *testing.T) {
	if !(DeviceOptane().ReadPage < DeviceIntelDC().ReadPage &&
		DeviceIntelDC().ReadPage < DevicePSSD().ReadPage) {
		t.Fatal("device profile ordering")
	}
	if !(NetworkFast().MedianNS < NetworkMedium().MedianNS &&
		NetworkMedium().MedianNS < NetworkSlow().MedianNS) {
		t.Fatal("network profile ordering")
	}
}

func TestWorkloadsExported(t *testing.T) {
	if len(Workloads()) != 5 {
		t.Fatalf("workloads = %v", Workloads())
	}
}

func TestExperimentByID(t *testing.T) {
	tables, err := Experiment("table2", 0.1)
	if err != nil || len(tables) != 1 {
		t.Fatalf("Experiment(table2) = %v, %v", tables, err)
	}
	if len(ExperimentIDs()) < 15 {
		t.Fatalf("experiment ids = %v", ExperimentIDs())
	}
	if _, err := Experiment("bogus", 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestWearFacade(t *testing.T) {
	cfg := DefaultWearConfig()
	cfg.Servers = 4
	r, err := NewWearRack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.RunWeeks(10)
	if r.RackImbalance() < 1 {
		t.Fatal("imbalance below 1")
	}
}

// TestPublicECRun is the acceptance scenario via the public API:
// rackblox.Run with ErasureCode{K:4, M:2} completes YCSB end to end,
// and with m servers failed mid-run every read still succeeds through
// degraded reconstruction.
func TestPublicECRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StorageServers = 6
	cfg.Redundancy = RedundancyEC(4, 2)
	cfg.Duration = 400 * time.Millisecond.Nanoseconds()
	at := cfg.Warmup + 100*time.Millisecond.Nanoseconds()
	cfg.Scenario = []Event{FailServer(0, at), FailServer(1, at)}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recorder.Len() == 0 {
		t.Fatal("no samples")
	}
	if res.DegradedReads == 0 {
		t.Fatal("no degraded reads with two dead chunk holders")
	}
	if res.LostReads != 0 {
		t.Fatalf("%d reads lost; reconstruction must serve them all", res.LostReads)
	}
}

// TestECCodecExported round-trips the exported codec.
func TestECCodecExported(t *testing.T) {
	codec, err := NewECCodec(ECSpec{K: 2, M: 1})
	if err != nil {
		t.Fatal(err)
	}
	data := [][]byte{{1, 2, 3}, {4, 5, 6}}
	parity, err := codec.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	shards := [][]byte{nil, data[1], parity[0]}
	if err := codec.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	if shards[0][0] != 1 || shards[0][2] != 3 {
		t.Fatalf("reconstructed %v", shards[0])
	}
}
