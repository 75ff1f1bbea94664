package core

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"rackblox/internal/packet"
	"rackblox/internal/sim"
	"rackblox/internal/stats"
	"rackblox/internal/trace"
)

// clusterConfig is a three-rack, six-servers-per-rack cluster running
// RS(4,2) with spread placement, sized so every rack holds exactly m=2
// chunks of every stripe.
func clusterConfig() Config {
	cfg := DefaultConfig()
	cfg.System = RackBlox
	cfg.Racks = 3
	cfg.StorageServers = 6
	cfg.VSSDPairs = 3
	cfg.Redundancy = ErasureCode(4, 2)
	cfg.Placement = PlacementSpread
	cfg.Warmup = 50 * sim.Millisecond
	cfg.Duration = 300 * sim.Millisecond
	return cfg
}

// serverByIP decodes a server's index from its 10.0.<rack>.<16+local>
// address; the client and unassigned addresses miss.
func TestServerByIP(t *testing.T) {
	r, err := NewRack(clusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r.servers {
		if got := r.serverByIP(s.ip); got != s {
			t.Errorf("server %d (rack %d): address resolved to %v", s.index, s.rackIdx, got)
		}
	}
	for _, ip := range []uint32{
		r.clientIP,
		packet.IP4(10, 0, 0, 250), // far past the rack's servers
		packet.IP4(10, 0, 0, 15),
		packet.IP4(10, 0, 1, 16+6), // one past the rack's servers
		packet.IP4(10, 0, 3, 16),   // one past the racks
		packet.IP4(10, 1, 0, 16),
		packet.IP4(11, 0, 0, 16),
	} {
		if s := r.serverByIP(ip); s != nil {
			t.Errorf("%08x resolved to server %d", ip, s.index)
		}
	}
}

func TestMultiRackClusterHealthyRun(t *testing.T) {
	res, err := Run(clusterConfig())
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
}

func TestWholeRackFailureSpreadPlacementRecovers(t *testing.T) {
	cfg := clusterConfig()
	cfg.Scenario = []Event{FailRack(1, 120*sim.Millisecond)}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.UnrecoverableStripes != 0 {
		t.Fatalf("spread placement lost %d stripes to a single-rack failure",
			res.UnrecoverableStripes)
	}
	if res.LostReads != 0 {
		t.Fatalf("%d reads lost; failover + retransmission should recover all", res.LostReads)
	}
	if res.DegradedReads == 0 {
		t.Fatal("no degraded reads despite six dead chunk holders")
	}
	if res.CrossRackRepairBytes == 0 {
		t.Fatal("rack-level repair moved no bytes over the spine")
	}
	if u := res.SpineUtilization; u <= 0 || u > 1 {
		t.Fatalf("spine utilization %f outside (0,1]", u)
	}
	// The metered link bounds repair throughput: bytes over the whole run
	// can never exceed capacity * elapsed.
	capBytes := cfg.CrossRackMBps * 1e6 * float64(res.SimulatedTime) / 1e9
	if float64(res.CrossRackRepairBytes) > capBytes {
		t.Fatalf("cross-rack repair bytes %d exceed link capacity %f",
			res.CrossRackRepairBytes, capBytes)
	}
	if res.Switch.Handoffs == 0 {
		t.Fatal("no inter-switch handoffs; reads for the dead rack's members should spill over")
	}
}

func TestWholeRackFailureCompactPlacementLosesGroups(t *testing.T) {
	cfg := clusterConfig()
	cfg.Placement = PlacementCompact
	cfg.Scenario = []Event{FailRack(0, 120*sim.Millisecond)}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.UnrecoverableStripes == 0 {
		t.Fatal("compact placement survived a whole-rack failure; placement is not compact")
	}
	// Other racks' groups keep serving.
	if res.Recorder.Len() < 2000 {
		t.Fatalf("only %d samples; surviving racks stopped serving", res.Recorder.Len())
	}
}

func TestToRFailureServedByHandoff(t *testing.T) {
	cfg := clusterConfig()
	cfg.Scenario = []Event{FailToR(2, 120*sim.Millisecond)}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A dark ToR isolates its rack but loses no data: stripes stay
	// complete on disk, reads are served degraded from the other racks.
	if res.UnrecoverableStripes != 0 {
		t.Fatalf("ToR failure destroyed %d stripes; no data should be lost",
			res.UnrecoverableStripes)
	}
	if res.LostReads != 0 {
		t.Fatalf("%d reads lost after ToR failover", res.LostReads)
	}
	if res.DegradedReads == 0 {
		t.Fatal("no degraded reads despite an isolated rack")
	}
	if res.Failovers == 0 {
		t.Fatal("ToR failure never detected")
	}
	// No chunk reconstruction: the data is intact behind the dark ToR.
	if res.RepairedStripes != 0 || res.RepairPending != 0 {
		t.Fatalf("ToR failure queued reconstruction (repaired=%d pending=%d)",
			res.RepairedStripes, res.RepairPending)
	}
}

func TestSingleRackConfigUnchangedByClusterLayer(t *testing.T) {
	// The cluster layer with one rack must behave as the original rack:
	// no spine, no handoffs, identical topology invariants.
	cfg := DefaultConfig()
	cfg.Duration = 150 * sim.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Switch.Handoffs != 0 || res.CrossRackRepairBytes != 0 || res.SpineUtilization != 0 {
		t.Fatalf("single-rack run touched the spine: %+v", res.Switch)
	}
}

func TestMultiRackReplicationPairsCrossRacks(t *testing.T) {
	// Replication on a multi-rack cluster: pairs still serve, and a
	// server failure in rack 0 fails over as in the single-rack testbed.
	cfg := DefaultConfig()
	cfg.Racks = 2
	cfg.StorageServers = 3
	cfg.Warmup = 50 * sim.Millisecond
	cfg.Duration = 300 * sim.Millisecond
	cfg.Scenario = []Event{FailServer(0, 120*sim.Millisecond)}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failovers == 0 {
		t.Fatal("no failover on the multi-rack replication cluster")
	}
	if res.Recorder.Len() < 3000 {
		t.Fatalf("only %d samples", res.Recorder.Len())
	}
}

// TestCrossRackReplicationIsObserverOnly holds Hermes's cross-rack
// messages, which meter the spine without a span, to the flight
// recorder's contract: a traced and metered run of a replicated
// two-rack cluster with a server failure equals the plain run in
// everything but the recorder's own output.
func TestCrossRackReplicationIsObserverOnly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Racks = 2
	cfg.StorageServers = 3
	cfg.Warmup = 50 * sim.Millisecond
	cfg.Duration = 300 * sim.Millisecond
	cfg.Scenario = []Event{FailServer(0, 120*sim.Millisecond)}

	r, err := NewRack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(r.pairs, func(p *volume) bool {
		return p.insts[0].server.rackIdx != p.insts[1].server.rackIdx
	}) {
		t.Fatal("no replication pair spans both racks")
	}

	off, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traced := cfg
	traced.Trace = trace.Options{Enabled: true, SampleEvery: 4}
	traced.MetricsInterval = sim.Millisecond
	on, err := Run(traced)
	if err != nil {
		t.Fatal(err)
	}
	if on.Trace == nil || len(on.Trace.Spans) == 0 || on.Timelines == nil || on.Timelines.Len() == 0 {
		t.Fatal("traced and metered run recorded nothing")
	}
	if !slices.Equal(stats.RawSamples(off.Recorder), stats.RawSamples(on.Recorder)) {
		t.Fatal("traced run's latency samples differ from the plain run's")
	}
	on.Trace, on.Timelines, on.TailAttribution = nil, nil, nil
	on.Config.Trace, on.Config.MetricsInterval = trace.Options{}, 0
	a, err := json.Marshal(off)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(on)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("traced run's Result differs from plain run's\noff: %.400s\non:  %.400s", a, b)
	}
}
