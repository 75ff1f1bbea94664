package core

import (
	"runtime"
	"testing"

	"rackblox/internal/flash"
	"rackblox/internal/sim"
)

// ecRepairAllocConfig is a scaled-down ec-repair cluster — 3 racks x 6
// servers, RS(4,2) spread, the SLO repair pacer — run for d with one
// server fail/revive cycle per simulated second, so a longer run adds
// degraded reads, repair batches and pacer ticks in proportion to its
// requests.
func ecRepairAllocConfig(d sim.Time) Config {
	cfg := DefaultConfig()
	cfg.Racks = 3
	cfg.StorageServers = 6
	cfg.VSSDPairs = 3
	cfg.Redundancy = ErasureCode(4, 2)
	cfg.Placement = PlacementSpread
	cfg.CrossRackMBps = 80
	cfg.Device = flash.ProfileOptane()
	cfg.Workload.WriteFrac = 0.2
	cfg.Workload.MeanGap = 400 * sim.Microsecond
	cfg.KeyspaceFrac = 0.25
	cfg.MaxClientInflight = 256
	cfg.RepairSLO = RepairSLO{TargetP99: 6 * sim.Millisecond}
	cfg.Warmup = 50 * sim.Millisecond
	cfg.Duration = d
	for at := 120 * sim.Millisecond; at < d; at += sim.Second {
		server := int(at/sim.Second) * 7 % 18
		cfg.Scenario = append(cfg.Scenario, FailServer(server, at), ReviveServer(server, at+200*sim.Millisecond))
	}
	return cfg
}

// TestRackSteadyStateAllocs is the datapath's allocation gate: once the
// pools and per-key tables have grown, a request crosses client, ToR,
// server, flash, Hermes, the erasure-coded fan-out, degraded reads and
// the repair pipeline without heap allocations. Two runs of one
// configuration that differ only in length share set-up, warm-up and the
// final Result, so the difference in their heap allocations per
// difference in completed requests is the steady-state cost of one
// request. Allocation counts are deterministic, unlike timings.
func TestRackSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name        string
		cfg         func(d sim.Time) Config
		short, long sim.Time
	}{
		{"replicated", func(d sim.Time) Config {
			cfg := DefaultConfig()
			cfg.Warmup = 50 * sim.Millisecond
			cfg.Duration = d
			return cfg
		}, 100 * sim.Millisecond, 400 * sim.Millisecond},
		{"ec-repair", ecRepairAllocConfig, 2 * sim.Second, 6 * sim.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(d sim.Time) (mallocs uint64, requests int64, res *Result) {
				r, err := NewRack(tc.cfg(d))
				if err != nil {
					t.Fatalf("NewRack: %v", err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res = r.Run()
				runtime.ReadMemStats(&after)
				return after.Mallocs - before.Mallocs, r.completedReads + r.completedWrites, res
			}
			shortMallocs, shortReqs, short := run(tc.short)
			longMallocs, longReqs, long := run(tc.long)
			if longReqs <= shortReqs {
				t.Fatalf("the longer run completed %d requests, the shorter %d", longReqs, shortReqs)
			}
			if len(long.Config.Scenario) > 0 && (long.DegradedReads <= short.DegradedReads ||
				long.RepairedStripes <= short.RepairedStripes) {
				t.Fatalf("the longer run added no degraded reads (%d vs %d) or repairs (%d vs %d) to measure",
					long.DegradedReads, short.DegradedReads, long.RepairedStripes, short.RepairedStripes)
			}
			perReq := (float64(longMallocs) - float64(shortMallocs)) / float64(longReqs-shortReqs)
			t.Logf("%.3f heap allocations per completed request (%d more requests)", perReq, longReqs-shortReqs)
			if perReq > 0.1 {
				t.Errorf("steady state allocates %.3f objects per completed request, want at most 0.1", perReq)
			}
		})
	}
}

// TestRunSealsRecorder: a finished Run leaves its Recorder holding only
// sealed chunks. The staging buffer, a chunk's samples as plain uint64
// columns (768 KiB), must not outlive the run, so the heap freed by
// dropping the Recorder of a run that completed a few thousand requests
// is at most 9 bytes per sample.
func TestRunSealsRecorder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Warmup = 50 * sim.Millisecond
	cfg.Duration = 300 * sim.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := res.Recorder.Len()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var with, without runtime.MemStats
	runtime.GC()
	runtime.GC() // the second cycle frees what sync.Pools kept through the first
	runtime.ReadMemStats(&with)
	res.Recorder = nil
	runtime.GC()
	runtime.ReadMemStats(&without)
	runtime.KeepAlive(res)
	perSample := float64(int64(with.HeapAlloc)-int64(without.HeapAlloc)) / float64(n)
	t.Logf("the Recorder of %d samples held %.3f heap bytes per sample", n, perSample)
	if perSample > 9 {
		t.Errorf("the Recorder holds %.3f bytes per sample after Run, want at most 9", perSample)
	}
}

// TestRackStateFootprint: the rack's own per-vSSD tables hold only what
// their vSSD uses. On a multirack-shaped cluster (2 racks x 4 servers,
// 4 pairs, so one vSSD per server) and on its read-only twin, after Run
// each Hermes node's key pages hold at most 16 bytes per key they cover
// and the read-only run allocates none; each FTL's reverse map covers
// no more than the pages of its channels; and a device's chips hold
// page state only where an FTL took them.
func TestRackStateFootprint(t *testing.T) {
	for _, writeFrac := range []float64{DefaultConfig().Workload.WriteFrac, 0} {
		cfg := DefaultConfig()
		cfg.Racks = 2
		cfg.CrossRackMBps = 2000
		cfg.Workload.WriteFrac = writeFrac
		cfg.Warmup = 50 * sim.Millisecond
		cfg.Duration = 200 * sim.Millisecond
		r, err := NewRack(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.Run()
		geo := cfg.Geometry
		channelPages := geo.ChipsPerChannel * geo.BlocksPerChip * geo.PagesPerBlock
		for _, s := range r.servers {
			if len(s.insts) != 1 {
				t.Fatalf("writes %.2f: server %d holds %d vSSDs, want 1", writeFrac, s.index, len(s.insts))
			}
			taken := map[int]bool{}
			for _, inst := range s.insts {
				keys, bytes := inst.repl.Footprint()
				t.Logf("writes %.2f: vSSD %d: %d Hermes keys in %d bytes, reverse map of %d pages",
					writeFrac, inst.id, keys, bytes, inst.v.FTL.ReverseLen())
				if writeFrac == 0 && (keys != 0 || bytes != 0) {
					t.Errorf("read-only vSSD %d holds a Hermes table of %d keys in %d bytes, want none", inst.id, keys, bytes)
				}
				if writeFrac > 0 && (keys == 0 || bytes > 16*keys) {
					t.Errorf("vSSD %d holds %d Hermes keys in %d bytes, want at most 16 bytes per key", inst.id, keys, bytes)
				}
				chs := inst.v.FTL.Channels()
				if n, limit := inst.v.FTL.ReverseLen(), len(chs)*channelPages; n > limit {
					t.Errorf("vSSD %d's reverse map covers %d pages, its %d channels hold %d", inst.id, n, len(chs), limit)
				}
				for _, ch := range chs {
					taken[ch] = true
				}
			}
			for i, chip := range s.dev.Array().Chips {
				if ch := i / geo.ChipsPerChannel; (chip.Blocks != nil) != taken[ch] {
					t.Errorf("server %d chip %d (channel %d): holds state %v, taken by an FTL %v",
						s.index, i, ch, chip.Blocks != nil, taken[ch])
				}
			}
		}
	}
}
