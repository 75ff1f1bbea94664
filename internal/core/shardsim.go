package core

import (
	"rackblox/internal/sim"
)

// The sharded soak model: a full per-I/O rack workload that genuinely
// runs one engine per rack, in parallel goroutines under the
// conservative-lookahead windows of sim.ShardGroup.
//
// This is the production-scale path ROADMAP front (b) asked for: each
// rack shard owns its servers' device channels, its closed-loop clients,
// and its share of the counters; the only shared state is the spine —
// the metered cross-rack link on the coordinator shard — reached
// exclusively through the group's mailboxes. The ownership discipline is
// the same one the main datapath's Spine boundary enforces, which is
// what makes this model both a scaling vehicle (BenchmarkShardedSoak,
// the figsh experiment) and the template for migrating the full datapath
// onto rack shards: an executing event touches only its shard's state;
// everything that crosses a rack boundary is immutable values in a Post.
//
// Every decision is drawn from a per-rack RNG consumed only by that
// rack's events, so the model is deterministic by construction and
// RunShardedCluster returns bit-identical results in parallel and
// sequential mode — TestShardedClusterParallelByteIdentical holds it to
// that, the same contract the replay suite pins for the datapath.

// ShardedClusterConfig parameterizes the sharded soak workload.
type ShardedClusterConfig struct {
	Racks          int
	ServersPerRack int
	ChainsPerRack  int   // closed-loop clients per rack
	OpsPerRack     int64 // ops each rack's clients issue in total
	// CrossRackPermille is the share of ops (per thousand) that read a
	// remote rack: request and response route through the spine shard,
	// paying propagation latency both ways plus metered link occupancy.
	CrossRackPermille int
	CrossRackLatency  sim.Time
	CrossRackMBps     float64
	PageSize          int64
	ServiceTime       sim.Time // mean device occupancy per op
	ThinkTime         sim.Time // mean client pause between ops
	Seed              int64
}

func (c ShardedClusterConfig) withDefaults() ShardedClusterConfig {
	if c.Racks <= 0 {
		c.Racks = 1
	}
	if c.ServersPerRack <= 0 {
		c.ServersPerRack = 32
	}
	if c.ChainsPerRack <= 0 {
		c.ChainsPerRack = 64
	}
	if c.OpsPerRack <= 0 {
		c.OpsPerRack = 10_000
	}
	if c.CrossRackLatency <= 0 {
		c.CrossRackLatency = 20 * sim.Microsecond
	}
	if c.CrossRackMBps <= 0 {
		c.CrossRackMBps = 40_000
	}
	if c.PageSize <= 0 {
		c.PageSize = 4096
	}
	if c.ServiceTime <= 0 {
		c.ServiceTime = 80 * sim.Microsecond
	}
	if c.ThinkTime <= 0 {
		c.ThinkTime = 10 * sim.Microsecond
	}
	if c.Racks == 1 {
		c.CrossRackPermille = 0 // nowhere to cross to
	}
	return c
}

// ShardedClusterResult is the merged outcome of a sharded soak run. Two
// runs of the same config are comparable with ==-style deep equality;
// parallel and sequential execution must produce identical values.
type ShardedClusterResult struct {
	Racks      int
	Ops        int64
	CrossOps   int64
	SpineBytes int64
	LatencySum sim.Time
	MaxLatency sim.Time
	End        sim.Time
	Events     uint64
	ByHandler  map[string]uint64
}

// shardRack is one rack shard's private world: only events executing on
// that shard may touch it.
type shardRack struct {
	rng        *sim.RNG
	devices    []*sim.Resource
	left       int64
	ops        int64
	crossOps   int64
	latencySum sim.Time
	maxLat     sim.Time
}

// RunShardedCluster executes the soak model to completion — parallel
// (one goroutine per rack) or sequential (the differential oracle) — and
// returns the merged counters.
func RunShardedCluster(cfg ShardedClusterConfig, parallel bool) ShardedClusterResult {
	cfg = cfg.withDefaults()
	g := sim.NewShardGroup(cfg.Racks, cfg.CrossRackLatency)
	root := sim.NewRNG(cfg.Seed)

	// Spine state: coordinator-shard-owned.
	var link *sim.Bandwidth
	var spineBytes int64
	if cfg.Racks > 1 {
		link = sim.NewBandwidth(g.Coordinator(), cfg.CrossRackMBps*1e6)
	}
	frame := frameHeaderBytes + cfg.PageSize

	racks := make([]*shardRack, cfg.Racks)
	for i := range racks {
		rs := &shardRack{
			rng:     root.Fork(int64(i + 1)),
			devices: make([]*sim.Resource, cfg.ServersPerRack),
			left:    cfg.OpsPerRack,
		}
		for d := range rs.devices {
			rs.devices[d] = sim.NewResource(g.Shard(i + 1))
		}
		racks[i] = rs
	}

	for i := range racks {
		home := i + 1 // shard index (0 is the spine)
		rs := racks[i]
		eng := g.Shard(home)
		for c := 0; c < cfg.ChainsPerRack; c++ {
			// One reusable closure per chain: the steady-state local path
			// allocates no per-op closures, like the datapath's hot loop.
			var op sim.EventFunc
			finish := func(now, start sim.Time) {
				lat := now - start
				rs.latencySum += lat
				if lat > rs.maxLat {
					rs.maxLat = lat
				}
				eng.ScheduleAfter(rs.rng.Exp(cfg.ThinkTime)+1, labelShardOp, sim.EventFunc(op))
			}
			op = func(now sim.Time) {
				if rs.left == 0 {
					return
				}
				rs.left--
				rs.ops++
				occ := rs.rng.Exp(cfg.ServiceTime) + 1
				dev := rs.devices[rs.rng.Intn(len(rs.devices))]
				if rs.rng.Intn(1000) < cfg.CrossRackPermille {
					// Remote read: home -> spine -> remote rack -> spine
					// -> home. Hops carry only values; the continuation
					// closure executes back on the home shard.
					rs.crossOps++
					dst := 1 + rs.rng.Intn(cfg.Racks-1)
					if dst >= home {
						dst++
					}
					start := now
					g.PostAfter(home, 0, g.Lookahead(), labelSpineReq, sim.EventFunc(func(sim.Time) {
						spineBytes += frame
						_, xe := link.Transfer(frame, nil)
						g.Post(0, dst, xe+g.Lookahead(), labelShardRemote, sim.EventFunc(func(rnow sim.Time) {
							rem := racks[dst-1]
							rocc := rem.rng.Exp(cfg.ServiceTime) + 1
							_, de := rem.devices[rem.rng.Intn(len(rem.devices))].Acquire(rocc, nil)
							g.Post(dst, 0, de+g.Lookahead(), labelSpineResp, sim.EventFunc(func(sim.Time) {
								spineBytes += frame
								_, re := link.Transfer(frame, nil)
								g.Post(0, home, re+g.Lookahead(), labelShardDone, sim.EventFunc(func(dnow sim.Time) {
									finish(dnow, start)
								}))
							}))
						}))
					}))
					return
				}
				_, end := dev.Acquire(occ, nil)
				eng.Schedule(end, labelShardDone, sim.EventFunc(func(dnow sim.Time) { finish(dnow, now) }))
			}
			eng.ScheduleAfter(rs.rng.Exp(cfg.ThinkTime)+1, labelShardOp, sim.EventFunc(op))
		}
	}

	if parallel {
		g.Run()
	} else {
		g.RunSequential()
	}

	res := ShardedClusterResult{
		Racks:      cfg.Racks,
		SpineBytes: spineBytes,
		End:        g.Now(),
		Events:     g.Processed(),
		ByHandler:  g.ProcessedBy(),
	}
	for _, rs := range racks {
		res.Ops += rs.ops
		res.CrossOps += rs.crossOps
		res.LatencySum += rs.latencySum
		if rs.maxLat > res.MaxLatency {
			res.MaxLatency = rs.maxLat
		}
	}
	return res
}
