package main

import (
	"fmt"
	"runtime"

	"rackblox/internal/core"
	"rackblox/internal/ec"
	"rackblox/internal/netsim"
	"rackblox/internal/packet"
	"rackblox/internal/predictor"
	"rackblox/internal/replication"
	"rackblox/internal/sched"
	"rackblox/internal/sim"
	"rackblox/internal/ssd"
	"rackblox/internal/stats"
	"rackblox/internal/switchsim"
	"rackblox/internal/walltime"
	workloadgen "rackblox/internal/workload"
)

// The microbenchmarks time each layer from outside, through its public
// API, replaying the workload's configuration for a fixed number of
// operations. Each runs in five equal batches and reports the median
// host time per operation over the batches.
const batches = 5

// sink keeps the compiler from discarding results the benchmarks compute
// only to time them.
var sink int64

// timeOps runs op total times in batches and returns the median host
// nanoseconds per op and the heap allocations per op over all batches.
func timeOps(total int, op func()) (nsPerOp, allocsPerOp float64) {
	per := max(1, total/batches)
	ns := make([]float64, batches)
	var mallocs uint64
	for b := range ns {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := walltime.Start()
		for i := 0; i < per; i++ {
			op()
		}
		ns[b] = float64(walltime.Elapsed(start).Nanoseconds()) / float64(per)
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
	}
	return median(ns), float64(mallocs) / float64(per*batches)
}

// ring is a precomputed cycle of values, so drawing operation inputs
// costs one index inside the timed loops.
type ring[T any] struct {
	v []T
	i int
}

func newRing[T any](n int, gen func() T) *ring[T] {
	r := &ring[T]{v: make([]T, n)}
	for i := range r.v {
		r.v[i] = gen()
	}
	return r
}

func (r *ring[T]) next() T {
	x := r.v[r.i]
	r.i++
	if r.i == len(r.v) {
		r.i = 0
	}
	return x
}

// keyspace is the per-volume key count the workload's generator draws
// from: the vSSD's logical pages times KeyspaceFrac, as the rack sizes it.
func keyspace(cfg core.Config) uint64 {
	g := cfg.Geometry
	pages := float64(cfg.ChannelsPerVSSD*g.ChipsPerChannel*g.BlocksPerChip*g.PagesPerBlock) * cfg.Utilization
	return max(64, uint64(pages*cfg.KeyspaceFrac))
}

// microbenchmarks runs every layer's microbenchmark for the workload.
func microbenchmarks(cfg core.Config, o options, rep *report) {
	n := func(full int) int { return max(batches, int(float64(full)*o.scale)) }
	rng := func(label int64) *sim.RNG { return sim.NewRNG(o.seed).Fork(label) }

	ops := n(2_000_000)
	ns, allocs := benchEngine(cfg, rng(1), ops)
	rep.add("sim.engine.fire_ns", ns, "ns", ops)
	rep.add("sim.engine.allocs_per_op", allocs, "count", ops)

	ops = n(1_000_000)
	ns, _ = benchResource(cfg, ops)
	rep.add("sim.resource.acquire_ns", ns, "ns", ops)
	ns, _ = benchBandwidth(cfg, ops)
	rep.add("sim.bandwidth.transfer_ns", ns, "ns", ops)
	ns, _ = benchPaced(cfg, n(300_000))
	rep.add("sim.paced.admit_ns", ns, "ns", n(300_000))

	windows := n(10_000)
	ns, perWindow := benchShards(cfg, windows)
	rep.add("sim.shard.window_ns", ns, "ns", windows)
	rep.add("sim.shard.events_per_window", perWindow, "count", windows)

	ops = n(1_000_000)
	ns, allocs = benchSwitch(cfg, rng(2), ops)
	rep.add("switchsim.process_ns", ns, "ns", ops)
	rep.add("switchsim.process_allocs_per_op", allocs, "count", ops)

	ops = n(500_000)
	f, err := benchFTL(cfg, rng(3), ops)
	if err != nil {
		rep.problem("ssd microbenchmark: %v", err)
	}
	rep.add("ssd.ftl_write_ns", f.writeNs, "ns", ops)
	rep.add("ssd.ftl_read_ns", f.readNs, "ns", ops)
	rep.add("ssd.gc_ns_per_block", f.gcNsPerBlock, "ns", f.gcBlocks)
	rep.add("ssd.allocs_per_write", f.allocsPerWrite, "count", ops)

	ops = n(1_000_000)
	ns, _ = benchScheduler(cfg, rng(4), ops)
	rep.add("sched.enqueue_dequeue_ns", ns, "ns", ops)

	ops = n(2_000_000)
	ns, _ = benchNetwork(cfg, rng(5), ops)
	rep.add("netsim.hop_latency_ns", ns, "ns", ops)
	ns, _ = benchPredictor(cfg, rng(6), ops)
	rep.add("predictor.observe_predict_ns", ns, "ns", ops)
	ns, _ = benchGenerator(cfg, rng(7), ops)
	rep.add("workload.next_ns", ns, "ns", ops)

	ops = n(300_000)
	ns, allocs, err = benchReplication(ops)
	if err != nil {
		rep.problem("replication microbenchmark: %v", err)
	}
	rep.add("replication.write_ns", ns, "ns", ops)
	rep.add("replication.allocs_per_write", allocs, "count", ops)

	ops = n(2_000_000)
	ns, _ = benchReconstructor(cfg, ops)
	rep.add("ec.reconstructor_cycle_ns", ns, "ns", ops)

	ops = n(1_000_000)
	ns, _ = benchWindow(cfg, rng(8), ops)
	rep.add("stats.window_observe_ns", ns, "ns", ops)
}

// benchEngine schedules and fires one event per op with 4,096 events
// pending, at offsets drawn from the workload's interarrival gap.
func benchEngine(cfg core.Config, rng *sim.RNG, ops int) (float64, float64) {
	eng := sim.NewEngine()
	noop := func(sim.Time) {}
	gaps := newRing(4096, func() sim.Time { return rng.Exp(cfg.Workload.MeanGap) + 1 })
	for range 4096 {
		eng.AtNamed(eng.Now()+gaps.next(), "bench.pending", noop)
	}
	return timeOps(ops, func() {
		eng.AtNamed(eng.Now()+gaps.next(), "bench.op", noop)
		eng.Step()
	})
}

// benchResource reserves a flash channel for one page read per op and
// fires its completion.
func benchResource(cfg core.Config, ops int) (float64, float64) {
	eng := sim.NewEngine()
	res := sim.NewResource(eng)
	done := func(start, end sim.Time) { sink += end - start }
	return timeOps(ops, func() {
		res.Acquire(cfg.Device.ReadPage, done)
		eng.Step()
	})
}

// benchBandwidth moves one page over the workload's spine per op.
func benchBandwidth(cfg core.Config, ops int) (float64, float64) {
	eng := sim.NewEngine()
	link := sim.NewBandwidth(eng, cfg.CrossRackMBps*1e6)
	done := func(start, end sim.Time) { sink += end - start }
	bytes := int64(cfg.Geometry.PageSize)
	return timeOps(ops, func() {
		link.Transfer(bytes, done)
		eng.Step()
	})
}

// benchPaced admits one 16-page repair claim per op through a token lane
// on the spine, as the repair pacer does, and runs it to completion.
func benchPaced(cfg core.Config, ops int) (float64, float64) {
	eng := sim.NewEngine()
	link := sim.NewBandwidth(eng, cfg.CrossRackMBps*1e6)
	page := float64(cfg.Geometry.PageSize)
	lane := sim.NewPacedBandwidth(eng, link, cfg.CrossRackMBps*1e6, 64*page)
	bytes := int64(16 * page)
	grant := func(sim.Time) { link.Transfer(bytes, nil) }
	return timeOps(ops, func() {
		lane.Admit(bytes, grant)
		for eng.Step() {
		}
	})
}

// benchShards runs conservative-lookahead windows on the workload's shard
// topology (one shard per rack plus the coordinator). In every window
// each shard runs one event that schedules one local event and sends one
// cross-shard event for the next window, so windows is exact.
func benchShards(cfg core.Config, windows int) (nsPerWindow, eventsPerWindow float64) {
	per := max(1, windows/batches)
	ns := make([]float64, batches)
	var events uint64
	noop := func(sim.Time) {}
	for b := range ns {
		g := sim.NewShardGroup(max(1, cfg.Racks), cfg.CrossRackLatency)
		step := g.Lookahead()
		shards := g.Shards()
		for i := 0; i < shards; i++ {
			eng := g.Shard(i)
			left := per
			var chain sim.EventFunc
			chain = func(now sim.Time) {
				if left--; left > 0 {
					eng.AtNamed(now+step, "bench.local", chain)
					g.Send(i, (i+1)%shards, now+step, "bench.cross", noop)
				}
			}
			eng.AtNamed(0, "bench.local", chain)
		}
		start := walltime.Start()
		g.Run()
		ns[b] = float64(walltime.Elapsed(start).Nanoseconds()) / float64(per)
		events += g.Processed()
	}
	return median(ns), float64(events) / float64(per*batches)
}

// benchSwitch pushes the workload's read/write mix through one ToR: each
// op is Process plus the pipeline event it schedules.
func benchSwitch(cfg core.Config, rng *sim.RNG, ops int) (float64, float64) {
	eng := sim.NewEngine()
	// An unset Qdisc is the RackBlox default: no egress shaping.
	sw := switchsim.New(eng, switchsim.QdiscByName(cfg.Qdisc), func(p packet.Packet) { sink += int64(p.LatUS) })
	targets := registerVolumes(eng, sw, cfg)
	gen := workloadgen.NewYCSB(rng, keyspace(cfg), cfg.Workload.WriteFrac, cfg.Workload.MeanGap)
	client := packet.IP4(10, 0, 0, 1)
	seq := uint64(0)
	pkts := newRing(4096, func() packet.Packet {
		op := gen.Next()
		seq++
		t := targets[int(seq)%len(targets)]
		p := packet.Packet{SrcIP: client, DstIP: t.ip, Port: packet.ReservedPort,
			Op: packet.OpRead, VSSD: t.id, LPN: op.LPN, Seq: seq}
		if op.Write {
			p.Op = packet.OpWrite
		}
		return p
	})
	return timeOps(ops, func() {
		sw.Process(pkts.next())
		eng.Step()
	})
}

type target struct{ id, ip uint32 }

// registerVolumes installs the workload's volumes in the switch tables
// (create_vssd for every instance, stripe groups for erasure coding) and
// returns the instances clients address: primaries, or data-chunk
// holders.
func registerVolumes(eng *sim.Engine, sw *switchsim.Switch, cfg core.Config) []target {
	servers := max(1, cfg.Racks) * cfg.StorageServers
	ip := func(i int) uint32 { return packet.IP4(10, 0, 1, byte(16+i%servers)) }
	var targets []target
	create := func(id, at, replica, replicaAt uint32) {
		sw.Process(packet.Packet{Op: packet.OpCreateVSSD, VSSD: id, SrcIP: at,
			ReplicaVSSD: replica, ReplicaIP: replicaAt})
	}
	width := cfg.Redundancy.K + cfg.Redundancy.M
	if cfg.Redundancy.Scheme == core.ReplicationScheme {
		for p := 0; p < cfg.VSSDPairs; p++ {
			pri, rep := uint32(100+2*p), uint32(101+2*p)
			create(pri, ip(2*p), rep, ip(2*p+1))
			create(rep, ip(2*p+1), pri, ip(2*p))
			targets = append(targets, target{pri, ip(2 * p)})
		}
	} else {
		for g := 0; g < cfg.VSSDPairs; g++ {
			group := make([]uint32, width)
			for j := range group {
				group[j] = uint32(1000 + g*width + j)
			}
			for j, id := range group {
				next := (j + 1) % width
				create(id, ip(g*width+j), group[next], ip(g*width+next))
				if j < cfg.Redundancy.K {
					targets = append(targets, target{id, ip(g*width + j)})
				}
			}
			sw.RegisterStripe(group)
		}
	}
	eng.Run()
	return targets
}

// ftlResult is the FTL microbenchmark's outcome.
type ftlResult struct {
	writeNs, readNs, gcNsPerBlock, allocsPerWrite float64
	gcBlocks                                      int
}

// benchFTL preconditions one vSSD's FTL the way the rack does, then times
// zipfian writes — collecting garbage back above the soft threshold
// whenever the free ratio drops below it, timed apart — and reads.
func benchFTL(cfg core.Config, rng *sim.RNG, ops int) (ftlResult, error) {
	var out ftlResult
	dev, err := ssd.NewDevice(sim.NewEngine(), cfg.Geometry, cfg.Device)
	if err != nil {
		return out, err
	}
	var chips []ssd.ChipRef
	for ch := 0; ch < cfg.ChannelsPerVSSD; ch++ {
		chips = append(chips, dev.ChannelChips(ch)...)
	}
	ftl, err := ssd.NewFTL(dev, chips, cfg.Utilization)
	if err != nil {
		return out, err
	}
	keys := max(64, int(float64(ftl.LogicalPages())*cfg.KeyspaceFrac))
	for lpn := 0; lpn < keys; lpn++ {
		if _, err := ftl.Write(lpn); err != nil {
			ftl.CollectOnce()
			lpn--
		}
	}
	zipf := sim.NewZipf(rng, 0.99, uint64(keys))
	for ftl.FreeRatio() > cfg.SoftThreshold+0.06 {
		if _, err := ftl.Write(int(zipf.Next())); err != nil {
			return out, err
		}
	}
	lpns := newRing(4096, func() int { return int(zipf.Next()) })

	per := max(1, ops/batches)
	writeNs := make([]float64, batches)
	readNs := make([]float64, batches)
	var gcTotal float64
	var mallocs uint64
	for b := range writeNs {
		var gcNs float64
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := walltime.Start()
		for i := 0; i < per; i++ {
			if ftl.FreeRatio() < cfg.SoftThreshold {
				gcStart := walltime.Start()
				out.gcBlocks += ftl.CollectBurst(cfg.SoftThreshold+cfg.RestoreDelta, 0).Blocks
				gcNs += float64(walltime.Elapsed(gcStart).Nanoseconds())
			}
			if _, err := ftl.Write(lpns.next()); err != nil {
				return out, err
			}
		}
		writeNs[b] = (float64(walltime.Elapsed(start).Nanoseconds()) - gcNs) / float64(per)
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		gcTotal += gcNs

		start = walltime.Start()
		for i := 0; i < per; i++ {
			addr, err := ftl.Read(lpns.next())
			if err != nil {
				return out, err
			}
			sink += int64(addr.Page)
		}
		readNs[b] = float64(walltime.Elapsed(start).Nanoseconds()) / float64(per)
	}
	out.writeNs, out.readNs = median(writeNs), median(readNs)
	out.allocsPerWrite = float64(mallocs) / float64(per*batches)
	if out.gcBlocks > 0 {
		out.gcNsPerBlock = gcTotal / float64(out.gcBlocks)
	}
	return out, nil
}

// benchScheduler keeps a queue of eight requests in a coordinated
// scheduler of the workload's policy: each op enqueues one request,
// dispatches one, and reports its completion.
func benchScheduler(cfg core.Config, rng *sim.RNG, ops int) (float64, float64) {
	q := sched.New(sched.Config{Policy: cfg.SchedPolicy, Coordinated: true})
	type input struct {
		write        bool
		net, predict sim.Time
	}
	inputs := newRing(4096, func() input {
		return input{rng.Bool(cfg.Workload.WriteFrac), rng.Exp(60 * sim.Microsecond), rng.Exp(60 * sim.Microsecond)}
	})
	var free []*sched.Request
	for range 8 {
		free = append(free, &sched.Request{})
	}
	now := sim.Time(0)
	enqueue := func() {
		r := free[len(free)-1]
		free = free[:len(free)-1]
		in := inputs.next()
		*r = sched.Request{Write: in.write, Arrival: now, NetTime: in.net, Predict: in.predict}
		q.Enqueue(r)
	}
	for range 7 {
		enqueue()
	}
	return timeOps(ops, func() {
		now += cfg.Workload.MeanGap
		enqueue()
		if r := q.Dequeue(now); r != nil {
			q.OnComplete(r.Write, 100*sim.Microsecond)
			free = append(free, r)
		}
		if len(free) == 0 { // the policy held a write back
			free = append(free, &sched.Request{})
		}
	})
}

// benchNetwork samples one hop latency per op from the workload's
// network profile, at the rack's aggregate arrival rate.
func benchNetwork(cfg core.Config, rng *sim.RNG, ops int) (float64, float64) {
	net := netsim.New(cfg.Net, rng)
	gap := cfg.Workload.MeanGap / sim.Time(cfg.VSSDPairs)
	now := sim.Time(0)
	return timeOps(ops, func() {
		sink += net.HopLatency(now)
		now += gap
	})
}

// benchPredictor feeds one inbound latency to the §3.4 predictor and asks
// for a prediction, per op.
func benchPredictor(cfg core.Config, rng *sim.RNG, ops int) (float64, float64) {
	p := predictor.NewLatency(predictor.DefaultWindow)
	type obs struct {
		write bool
		lat   sim.Time
	}
	inputs := newRing(4096, func() obs { return obs{rng.Bool(cfg.Workload.WriteFrac), rng.Exp(60 * sim.Microsecond)} })
	return timeOps(ops, func() {
		in := inputs.next()
		p.Observe(in.write, in.lat)
		sink += p.Predict(in.write)
	})
}

// benchGenerator draws one operation and its interarrival gap per op from
// the workload's YCSB generator.
func benchGenerator(cfg core.Config, rng *sim.RNG, ops int) (float64, float64) {
	gen := workloadgen.NewYCSB(rng, keyspace(cfg), cfg.Workload.WriteFrac, cfg.Workload.MeanGap)
	return timeOps(ops, func() {
		sink += int64(gen.Next().LPN) + gen.NextGap()
	})
}

// benchReplication runs one Hermes write per op from the primary of a
// two-node group to commit, over a loopback transport that delivers
// messages in order.
func benchReplication(ops int) (float64, float64, error) {
	var queue []replication.Message
	send := func(m replication.Message) { queue = append(queue, m) }
	nodes := []*replication.Node{
		replication.NewNode(0, []int{0, 1}, send),
		replication.NewNode(1, []int{0, 1}, send),
	}
	commits := 0
	onCommit := func() { commits++ }
	lpn := uint32(0)
	ns, allocs := timeOps(ops, func() {
		lpn = (lpn + 1) % 4096
		nodes[0].Write(lpn, onCommit)
		for i := 0; i < len(queue); i++ {
			nodes[queue[i].To].Handle(queue[i])
		}
		queue = queue[:0]
	})
	if want := max(1, ops/batches) * batches; commits != want {
		return ns, allocs, fmt.Errorf("%d of %d writes committed", commits, want)
	}
	return ns, allocs, nil
}

// benchReconstructor cycles the repair queue as the rack does after a
// crash: a lost holder's chunk set is enqueued in 64-stripe batches and
// claimed 16 stripes at a time (a paced claim); each op is one
// NextUpTo plus its Done.
func benchReconstructor(cfg core.Config, ops int) (float64, float64) {
	r := ec.NewReconstructor()
	stripes := int(keyspace(cfg))
	holder := 0
	return timeOps(ops, func() {
		if r.Pending() == 0 {
			holder = (holder + 1) % 6
			r.EnqueueChunk(holder, stripes, 64)
		}
		t, _ := r.NextUpTo(16)
		r.Done(t)
	})
}

// benchWindow feeds the repair pacer's windowed p99 sensor one read
// latency per op and queries its p99 once per controller tick, at the
// workload's read rate.
func benchWindow(cfg core.Config, rng *sim.RNG, ops int) (float64, float64) {
	w := stats.NewWindowedQuantile(128)
	readsPerSec := float64(cfg.VSSDPairs) * (1 - cfg.Workload.WriteFrac) * float64(sim.Second) / float64(cfg.Workload.MeanGap)
	perTick := max(1, int(readsPerSec*0.002))
	lats := newRing(4096, func() int64 { return rng.Exp(500 * sim.Microsecond) })
	i := 0
	return timeOps(ops, func() {
		w.Observe(lats.next())
		if i++; i%perTick == 0 {
			sink += w.P99()
		}
	})
}
