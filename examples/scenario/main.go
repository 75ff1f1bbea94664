// Scenario timelines: typed fault/recovery event schedules
// (Config.Scenario), each event at its own instant, so one run can
// stage whole sequences — here a fail -> revive -> re-pair timeline
// under both redundancy backends, then a repeated fail/heal cycle.
//
// Under replication, a crashed server's pairs fail over to their
// survivors; when the server returns (blank), the survivors re-admit it
// to their Hermes groups (AddPeer) and the failover rewrites are
// withdrawn. Under erasure coding the revival is costlier and honest
// about it: the returned box has no data, so every chunk holder it
// hosted is rebuilt from scratch by the metered reconstructor —
// contending for the same cross-rack spine as foreground traffic — and
// only when the last chunk lands is it re-registered under its original
// id (degraded reads stop, latency returns to baseline). A second crash
// of the same server then heals through adopter re-integration, showing
// the cycle repeats.
package main

import (
	"fmt"
	"log"

	"rackblox"
)

const ms = 1_000_000 // virtual nanoseconds per millisecond

// replCluster is a single-rack replicated setup.
func replCluster() rackblox.Config {
	cfg := rackblox.DefaultConfig()
	cfg.Warmup = 50 * ms
	cfg.Duration = 550 * ms
	return cfg
}

// ecCluster is the three-rack RS(4,2) spread-placement lifecycle setup;
// the measured window starts at measureFrom so phases are comparable.
func ecCluster(measureFrom int64) rackblox.Config {
	cfg := rackblox.DefaultConfig()
	cfg.Racks = 3
	cfg.StorageServers = 6
	cfg.VSSDPairs = 3
	cfg.Redundancy = rackblox.RedundancyEC(4, 2)
	cfg.Placement = rackblox.PlacementSpread
	cfg.Device = rackblox.DeviceOptane()
	cfg.Workload.WriteFrac = 0.2
	cfg.KeyspaceFrac = 0.25
	cfg.MaxClientInflight = 256
	cfg.Warmup = measureFrom
	cfg.Duration = 300 * ms
	return cfg
}

func run(cfg rackblox.Config) *rackblox.Result {
	res, err := rackblox.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	// Replication: fail -> revive -> Hermes re-pair.
	cfg := replCluster()
	cfg.Scenario = []rackblox.Event{
		rackblox.FailServer(0, 150*ms),
		rackblox.ReviveServer(0, 350*ms),
	}
	res := run(cfg)
	fmt.Println("replication: fail -> revive -> re-pair")
	fmt.Printf("  failovers installed:  %d\n", res.Failovers)
	fmt.Printf("  servers revived:      %d (survivors re-admit the peer via AddPeer)\n",
		res.ServerRevivals)
	fmt.Printf("  requests lost:        %d (bounded to the crash window)\n\n", res.LostRequests)

	// Erasure coding: the same timeline forces a real catch-up.
	const failAt, reviveAt, healedBy, fail2At, healed2By = 120, 300, 550, 650, 1050 // ms
	cycle := []rackblox.Event{
		rackblox.FailServer(0, failAt*ms),
		rackblox.ReviveServer(0, reviveAt*ms),
	}
	healthy := run(ecCluster(healedBy * ms))
	base := healthy.Recorder.Reads().Mean() / 1e6
	fmt.Printf("erasure coding healthy baseline: reads %.3f ms mean\n\n", base)

	cfg = ecCluster(healedBy * ms)
	cfg.Scenario = cycle
	res = run(cfg)
	fmt.Println("ec: fail -> revive -> catch-up -> restore")
	fmt.Printf("  degraded reads while down+rebuilding: %d\n", res.DegradedReads)
	fmt.Printf("  holders restored onto revived server: %d (stripes %d, pending %d)\n",
		res.RestoredHolders, res.ReintegratedStripes, res.RepairPending)
	fmt.Printf("  degraded reads after the restore:     %d\n", res.DegradedReadsPostRepair)
	fmt.Printf("  post-restore reads: %.3f ms mean (%.2fx healthy)\n\n",
		res.Recorder.Reads().Mean()/1e6, res.Recorder.Reads().Mean()/1e6/base)

	// Fail the same server again: the timeline API makes cycles routine.
	cfg = ecCluster(healed2By * ms)
	cfg.Scenario = append(append([]rackblox.Event(nil), cycle...),
		rackblox.FailServer(0, fail2At*ms))
	res = run(cfg)
	fmt.Println("ec: fail-again after the heal (adopter re-integration)")
	fmt.Printf("  stripes re-integrated over both cycles: %d (pending %d)\n",
		res.ReintegratedStripes, res.RepairPending)
	fmt.Printf("  degraded reads after second heal:       %d\n", res.DegradedReadsPostRepair)
	fmt.Printf("  post-heal reads: %.3f ms mean (%.2fx healthy)\n",
		res.Recorder.Reads().Mean()/1e6, res.Recorder.Reads().Mean()/1e6/base)
}
