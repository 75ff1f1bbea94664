package main

import (
	"rackblox/internal/core"
	"rackblox/internal/flash"
	"rackblox/internal/sim"
)

// workload is one input of the benchmark: a rack configuration and the
// reason the benchmark runs it. Clients are semi-open everywhere:
// Poisson arrivals per volume, capped in flight by MaxClientInflight.
type workload struct {
	name string
	why  string
	// build returns the configuration for a seed with the measured
	// simulated length multiplied by scale (1 is the full workload;
	// tests run a hundredth of it).
	build func(seed int64, scale float64) core.Config
}

var workloads = []workload{
	{
		name:  "ycsb-a",
		why:   "write-heavy: FTL GC at steady state, coordinated-GC redirection, Hermes and the write cache",
		build: ycsbA,
	},
	{
		name:  "ycsb-c",
		why:   "control: the same rack read-only, so GC, Hermes and the write cache are bypassed",
		build: ycsbC,
	},
	{
		name:  "ec-repair",
		why:   "RS(4,2) over 3 racks through 40 server fail/revive cycles: reconstructor, paced spine, degraded reads",
		build: ecRepair,
	},
	{
		name:  "multirack",
		why:   "8 racks: foreground spine metering and cross-rack Hermes, the one workload rack shards could parallelize",
		build: multirack,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled shortens a simulated length for reduced-size runs.
func scaled(d sim.Time, scale float64) sim.Time {
	if s := sim.Time(float64(d) * scale); s > sim.Millisecond {
		return s
	}
	return sim.Millisecond
}

// ycsbA is core.DefaultConfig measured for 40 s: long enough for the
// FTL's write amplification to settle (1.44 at 10 s, 1.53 at 30 s, 1.55
// at 60 s).
func ycsbA(seed int64, scale float64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Duration = scaled(40*sim.Second, scale)
	return cfg
}

func ycsbC(seed int64, scale float64) core.Config {
	cfg := ycsbA(seed, scale)
	cfg.Workload.WriteFrac = 0
	return cfg
}

// ecRepair is the figslo cluster (3 racks x 6 servers, RS(4,2) spread,
// Optane, an 80 MB/s spine) with a fixed SLO near figslo's rule of 2.5x
// the healthy read p99 (about 2.6 ms), driven through one fail/revive
// cycle per simulated second.
// Server 7i+i/3 mod 18 fails in cycle i: 7 is coprime with 18, so the
// cycles visit every server, and the i/3 term keeps consecutive cycles
// from repeating the same rack pattern.
func ecRepair(seed int64, scale float64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Racks = 3
	cfg.StorageServers = 6
	cfg.VSSDPairs = 3
	cfg.Redundancy = core.ErasureCode(4, 2)
	cfg.Placement = core.PlacementSpread
	cfg.CrossRackMBps = 80
	cfg.Device = flash.ProfileOptane()
	cfg.Workload.WriteFrac = 0.2
	cfg.Workload.MeanGap = 400 * sim.Microsecond
	cfg.KeyspaceFrac = 0.25
	cfg.MaxClientInflight = 256
	cfg.RepairSLO = core.RepairSLO{TargetP99: 6 * sim.Millisecond}
	cfg.Duration = scaled(40*sim.Second+500*sim.Millisecond, scale)
	cycles := max(1, int(40*scale))
	for i := 0; i < cycles; i++ {
		at := sim.Time(i)*sim.Second + 120*sim.Millisecond
		server := (7*i + i/3) % 18
		cfg.Scenario = append(cfg.Scenario,
			core.FailServer(server, at), core.ReviveServer(server, at+200*sim.Millisecond))
	}
	return cfg
}

func multirack(seed int64, scale float64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Racks = 8
	cfg.VSSDPairs = 16
	cfg.CrossRackMBps = 2000
	cfg.Duration = scaled(8*sim.Second, scale)
	return cfg
}

// lastFailure returns the instant of the scenario's final server crash,
// and false when the workload injects none.
func lastFailure(cfg core.Config) (sim.Time, bool) {
	var last sim.Time
	found := false
	for _, ev := range cfg.Scenario {
		if ev.Kind == core.EventFailServer && (!found || ev.At > last) {
			last, found = ev.At, true
		}
	}
	return last, found
}

// warmUpConfig is the untimed warm-up run: the workload's first simulated
// second, with the scenario cut to the events inside it.
func warmUpConfig(cfg core.Config) core.Config {
	cfg.Duration = min(cfg.Duration, sim.Second)
	end := cfg.Warmup + cfg.Duration
	var events []core.Event
	for _, ev := range cfg.Scenario {
		if ev.At < end {
			events = append(events, ev)
		}
	}
	cfg.Scenario = events
	return cfg
}
