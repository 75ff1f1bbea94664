package core

import (
	"testing"

	"rackblox/internal/sim"
)

// lrcConfig is clusterConfig's topology — three racks, six servers each,
// spread placement — running LRC(4,2) instead of RS(4,2): every group
// adds one local parity holder per rack after its six global members.
func lrcConfig() Config {
	cfg := DefaultConfig()
	cfg.System = RackBlox
	cfg.Racks = 3
	cfg.StorageServers = 6
	cfg.VSSDPairs = 3
	cfg.Redundancy = LocalParityCode(4, 2)
	cfg.Placement = PlacementSpread
	cfg.Warmup = 50 * sim.Millisecond
	cfg.Duration = 300 * sim.Millisecond
	return cfg
}

func TestLRCHealthyRun(t *testing.T) {
	res, err := Run(lrcConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Recorder.Len() < 3000 {
		t.Fatalf("only %d samples", res.Recorder.Len())
	}
	if res.LostRequests != 0 || res.UnrecoverableStripes != 0 {
		t.Fatalf("healthy cluster lost data: lost=%d unrecov=%d",
			res.LostRequests, res.UnrecoverableStripes)
	}
	if res.CrossRackRepairBytes != 0 {
		t.Fatalf("healthy cluster moved %d repair bytes over the spine",
			res.CrossRackRepairBytes)
	}
	// The honest cost of local parity: a logical write updates its data
	// chunk, the m global parities, and the local parity of every rack
	// those touch — strictly more sub-writes per write than RS's 1+m.
	writes := res.Recorder.Writes().Len()
	if writes > 0 && res.ECSubWrites <= int64(writes)*3 {
		t.Fatalf("ECSubWrites=%d for %d writes; LRC must exceed RS's 3 per write",
			res.ECSubWrites, writes)
	}
}

func TestLRCValidation(t *testing.T) {
	cfg := lrcConfig()
	cfg.Racks = 1
	if _, err := Run(cfg); err == nil {
		t.Fatal("LRC over a single rack accepted")
	}
	cfg = lrcConfig()
	cfg.Placement = PlacementCompact
	if _, err := Run(cfg); err == nil {
		t.Fatal("LRC with compact placement accepted")
	}
	cfg = lrcConfig()
	cfg.StorageServers = 2 // 2 globals/rack leave no server for the parity
	if _, err := Run(cfg); err == nil {
		t.Fatal("LRC with no room for the local parity accepted")
	}
}

// TestLRCSingleServerLossRepairsInRack is the headline property: one
// crashed server is repaired entirely inside its rack — the local-XOR
// plan rebuilds the lost chunks from the rack's survivors plus its local
// parity, and no repair byte crosses the spine.
func TestLRCSingleServerLossRepairsInRack(t *testing.T) {
	cfg := lrcConfig()
	cfg.Duration = 500 * sim.Millisecond
	cfg.Scenario = []Event{FailServer(0, cfg.Warmup+100*sim.Millisecond)}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failovers == 0 {
		t.Fatal("failure never detected")
	}
	if res.LostReads != 0 || res.UnrecoverableReads != 0 {
		t.Fatalf("lost=%d unrecoverable=%d reads under a single-server loss",
			res.LostReads, res.UnrecoverableReads)
	}
	if res.RepairedStripes == 0 {
		t.Fatal("reconstructor never repaired a stripe")
	}
	if res.LocalRepairStripes == 0 {
		t.Fatal("no stripes repaired via the rack-local XOR plan")
	}
	if res.CrossRackRepairBytes != 0 {
		t.Fatalf("single-server repair moved %d bytes over the spine; the local plan moves none",
			res.CrossRackRepairBytes)
	}
	t.Logf("local=%d agg=%d localDegraded=%d of degraded=%d",
		res.LocalRepairStripes, res.AggregatedRepairStripes,
		res.LocalDegradedReads, res.DegradedReads)
}

// TestLRCRackFailureAggregatesRepair: with a whole rack down the local
// plan is impossible, so repair falls back to the global decode with
// per-rack aggregation — spine bytes flow, but one batch per remote
// rack rather than one per survivor.
func TestLRCRackFailureAggregatesRepair(t *testing.T) {
	cfg := lrcConfig()
	cfg.Scenario = []Event{FailRack(1, 120*sim.Millisecond)}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.UnrecoverableStripes != 0 {
		t.Fatalf("spread LRC lost %d stripes to a single-rack failure",
			res.UnrecoverableStripes)
	}
	if res.LostReads != 0 {
		t.Fatalf("%d reads lost; failover + retransmission should recover all", res.LostReads)
	}
	if res.AggregatedRepairStripes == 0 {
		t.Fatal("no stripes repaired via the aggregated plan with the whole rack down")
	}
	if res.CrossRackRepairBytes == 0 {
		t.Fatal("rack-level repair moved no bytes over the spine")
	}
}

// TestLRCDurabilityCreditsLocallyRecoverableRacks exercises the
// durability accounting this family changes: one dead global member per
// rack (three dead servers, only three live globals — fewer than k)
// stays recoverable, because every rack can rebuild its single casualty
// from its survivors plus its local parity.
func TestLRCDurabilityCreditsLocallyRecoverableRacks(t *testing.T) {
	cfg := lrcConfig()
	cfg.Duration = 400 * sim.Millisecond
	// Group 0 places its globals on servers 0 and 1 of each rack; kill
	// server 0 of every rack (global indexes stride StorageServers).
	at := cfg.Warmup + 100*sim.Millisecond
	cfg.Scenario = []Event{FailServer(0, at), FailServer(6, at), FailServer(12, at)}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.UnrecoverableStripes != 0 {
		t.Fatalf("%d stripes counted unrecoverable; one loss per rack is locally repairable",
			res.UnrecoverableStripes)
	}
	if res.RepairedStripes == 0 {
		t.Fatal("reconstructor never repaired a stripe")
	}
}
