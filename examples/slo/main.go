// SLO-aware repair pacing: background reconstruction and foreground
// traffic share the cross-rack spine, so unpaced repair on a scarce
// link drags the foreground read tail far past any latency objective.
// Config.RepairSLO closes the loop: a windowed p99 sensor watches every
// completed foreground read, an AIMD controller adjusts the repair
// admission rate between a 1 MB/s floor and the spine's capacity, and a
// token lane on the spine enforces it — foreground transfers keep FIFO
// access to the link while repair batches (split to token-sized
// transfers) wait for credit.
//
// This example replays a fail -> revive -> fail-again timeline on a
// three-rack RS(4,2) cluster over an 80 MB/s spine, unpaced and then
// paced against a 6.5ms p99 target, and prints the trade-off the
// controller makes: the paced tail stays under the SLO while repair
// still completes — a little later than the unpaced run, which is the
// price of the foreground's latency floor. The controller's rate
// timeline shows the AIMD sawtooth: additive probing while the tail is
// healthy, multiplicative backoff the moment it is not.
package main

import (
	"fmt"
	"log"

	"rackblox"
)

const ms = 1_000_000 // virtual nanoseconds per millisecond

// cluster is the lifecycle setup on a deliberately scarce spine: the
// steady foreground load fits with headroom, repair is the marginal
// contender.
func cluster() rackblox.Config {
	cfg := rackblox.DefaultConfig()
	cfg.Racks = 3
	cfg.StorageServers = 6
	cfg.VSSDPairs = 3
	cfg.Redundancy = rackblox.RedundancyEC(4, 2)
	cfg.Placement = rackblox.PlacementSpread
	cfg.CrossRackMBps = 80
	cfg.Device = rackblox.DeviceOptane()
	cfg.Workload.WriteFrac = 0.2
	cfg.Workload.MeanGap = 400_000 // 400us: ~half the lifecycle default
	cfg.KeyspaceFrac = 0.25
	cfg.MaxClientInflight = 256
	cfg.Warmup = 120 * ms // measure from the first crash onward
	cfg.Duration = 930 * ms
	cfg.Scenario = []rackblox.Event{
		rackblox.FailServer(0, 120*ms),
		rackblox.ReviveServer(0, 300*ms),
		rackblox.FailServer(0, 650*ms),
	}
	return cfg
}

func run(name string, cfg rackblox.Config) *rackblox.Result {
	res, err := rackblox.Run(cfg)
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	fmt.Printf("%-8s p99 %6.2fms   repair done %7.1fms   slo-violated ticks %4.1f%%   lost reads %d\n",
		name,
		float64(res.Recorder.Reads().P99())/float64(ms),
		float64(res.RepairCompletionTime)/float64(ms),
		100*res.SLOViolationFraction,
		res.LostReads)
	return res
}

func main() {
	const target = 6_500_000 // 6.5ms foreground read p99 objective

	fmt.Printf("fail -> revive -> fail-again on an 80 MB/s spine, SLO target %.1fms\n\n",
		float64(target)/float64(ms))

	run("unpaced", cluster())

	paced := cluster()
	// Repair never starves (a 1 MB/s floor) and may use the whole 80
	// MB/s spine when latency permits.
	paced.RepairSLO = rackblox.RepairSLO{TargetP99: target}
	res := run("paced", paced)

	fmt.Println("\ncontroller rate timeline (AIMD sawtooth, first 10 changes):")
	for i, pt := range res.RepairRateTimeline {
		if i >= 10 {
			fmt.Printf("  ... %d more adjustments\n", len(res.RepairRateTimeline)-i)
			break
		}
		fmt.Printf("  %7.1fms  %6.2f MB/s\n", float64(pt.At)/float64(ms), pt.MBps)
	}

	fmt.Println("\nbyte accounting (delivered == offered once the run drains):")
	fmt.Printf("  repair     %6.2f MB delivered, %6.2f MB offered\n",
		float64(res.CrossRackRepairBytes)/1e6, float64(res.CrossRackRepairBytesOffered)/1e6)
	fmt.Printf("  foreground %6.2f MB delivered, %6.2f MB offered\n",
		float64(res.ForegroundCrossRackBytes)/1e6, float64(res.ForegroundCrossRackBytesOffered)/1e6)
}
