// Recovery lifecycle: fail, repair, re-integrate, revive. A three-rack
// RS(4,2) cluster with spread placement loses a storage server; the
// switch steers its reads to survivors (degraded reconstruction from
// any 4 chunks) while the background reconstructor rebuilds the lost
// chunks in GC idle windows. When the last chunk lands, the replacement
// holder is re-registered in every ToR's stripe table — reads are
// served directly again, at baseline latency. A second run darkens a
// ToR switch instead and revives it mid-run: the switch comes back with
// blank SRAM, the control plane replays its tables from survivors, and
// the sibling switches drop their stale remote-dead marks. Foreground
// client traffic and repair traffic are metered on the same cross-rack
// spine, so the two classes contend realistically.
package main

import (
	"fmt"
	"log"

	"rackblox"
)

// cluster is the shared lifecycle setup; the measured window starts at
// measureFrom so phases are comparable.
func cluster(measureFrom int64) rackblox.Config {
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
	cfg.Warmup = measureFrom * 1_000_000 // ns
	cfg.Duration = 300 * 1_000_000
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
	const failAt, reviveAt, healedBy = 120, 300, 500 // ms

	healthy := run(cluster(healedBy))
	base := healthy.Recorder.Reads().Mean() / 1e6
	fmt.Printf("healthy baseline:  reads %.3f ms mean, foreground spine %.1f MB\n\n",
		base, float64(healthy.ForegroundCrossRackBytes)/1e6)

	// Crash one server, measure after repair + re-integration.
	cfg := cluster(healedBy)
	cfg.Scenario = []rackblox.Event{rackblox.FailServer(0, failAt*1_000_000)}
	res := run(cfg)
	fmt.Printf("server crash -> repair -> re-integrate:\n")
	fmt.Printf("  degraded reads while rebuilding: %d\n", res.DegradedReads)
	fmt.Printf("  stripes re-integrated:           %d (pending %d)\n",
		res.ReintegratedStripes, res.RepairPending)
	fmt.Printf("  degraded reads after healing:    %d\n", res.DegradedReadsPostRepair)
	fmt.Printf("  repair vs foreground spine MB:   %.1f / %.1f\n",
		float64(res.CrossRackRepairBytes)/1e6, float64(res.ForegroundCrossRackBytes)/1e6)
	fmt.Printf("  post-repair reads: %.3f ms mean (%.2fx healthy)\n\n",
		res.Recorder.Reads().Mean()/1e6, res.Recorder.Reads().Mean()/1e6/base)

	// Darken a ToR, revive it mid-run, measure after revival.
	cfg = cluster(healedBy)
	cfg.Scenario = []rackblox.Event{
		rackblox.FailToR(1, failAt*1_000_000),
		rackblox.ReviveToR(1, reviveAt*1_000_000),
	}
	res = run(cfg)
	fmt.Printf("tor outage -> revival (tables replayed from survivors):\n")
	fmt.Printf("  degraded reads while dark:       %d\n", res.DegradedReads)
	fmt.Printf("  ToR revivals:                    %d\n", res.ToRRevivals)
	fmt.Printf("  degraded reads after revival:    %d\n", res.DegradedReadsPostRepair)
	fmt.Printf("  post-revival reads: %.3f ms mean (%.2fx healthy)\n",
		res.Recorder.Reads().Mean()/1e6, res.Recorder.Reads().Mean()/1e6/base)
}
