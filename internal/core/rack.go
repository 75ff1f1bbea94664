package core

import (
	"fmt"
	"slices"

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
	"rackblox/internal/trace"
	"rackblox/internal/vssd"
	"rackblox/internal/workload"
)

// Fixed service costs of the software stack.
const (
	serverProcTime  = 3 * sim.Microsecond   // NIC + request handling
	cacheHitTime    = 2 * sim.Microsecond   // DRAM read
	cacheInsertTime = 2 * sim.Microsecond   // DRAM write
	controllerProc  = 150 * sim.Microsecond // VDC controller decision
	gcReplyTimeout  = 2 * sim.Millisecond   // gc_op retransmission timer
	hermesRetryGap  = 50 * sim.Microsecond  // redirected read hit an
	// invalidated key: retry after the in-flight write likely committed
)

// instance is one vSSD replica instance living on a server.
type instance struct {
	id     uint32
	v      *vssd.VSSD
	server *server
	// slot is the instance's index among its volume's members.
	slot int
	// partner is the instance this one pairs with: the other member of
	// a replicated pair, or the next member in group order for an
	// erasure-coded holder. The VDC controller consults its GC state,
	// and failover routes to it.
	partner *instance

	queue       sched.Scheduler
	pred        *predictor.Latency
	idle        *predictor.Idle
	repl        *replication.Node
	inflight    int
	maxInflight int
	// pumpEv and monitorEv are the instance's queue pump and GC monitor
	// events, bound once so rescheduling them allocates nothing.
	pumpEv    sim.EventFunc
	monitorEv sim.EventFunc

	// Per-instance write cache and flusher (one flush slot per owned
	// channel); isolation prevents cross-tenant head-of-line blocking.
	cache            *writeCache
	stalled          []*sched.Request
	pendingRead      *sched.Request
	flushInflight    int
	maxFlushInflight int

	// group is set for software-isolated instances (§3.5.2); peer is the
	// collocated tenant sharing the channel group.
	group *vssd.ChannelGroup
	peer  *vssd.VSSD

	// GC protocol state.
	gcRequestInFlight bool
	gcRetries         int
	lastGCType        packet.GCField
	// ctrlGC is the VDC controller's view of this instance's GC state;
	// replicaIdleHint caches the controller's answer for software
	// (server-side) redirection in RackBlox (Software).
	ctrlGC          bool
	replicaIdleHint bool
}

// volume is one logical volume with its client: the members it spans,
// the workload generator and the client's window of requests in flight.
// A replicated volume is a Hermes pair, primary then replica; an
// erasure-coded one is the client half of an ecGroup.
type volume struct {
	idx int
	// insts holds the members in placement order.
	insts []*instance
	// tors lists each ToR serving a member once, ordered by the first
	// member it serves.
	tors []*switchsim.Switch
	gen  workload.Generator
	// keys and seed are gen's key count and stream seed, drawn from the
	// rack's stream in build order (drawGenerator); buildGenerators
	// builds gen from them.
	keys     uint64
	seed     int64
	inflight int
	// issueEv is the volume's next client arrival, bound once.
	issueEv sim.EventFunc
}

// addMember appends inst to the volume's members and notes its ToR.
func (r *Rack) addMember(v *volume, inst *instance) {
	inst.slot = len(v.insts)
	v.insts = append(v.insts, inst)
	if tor := r.torOf(inst.server); !slices.Contains(v.tors, tor) {
		v.tors = append(v.tors, tor)
	}
}

// reqState tracks one request across the rack for latency breakdown.
// vol is the volume that issued it; group is also set when that volume
// is erasure-coded.
type reqState struct {
	seq        uint64
	write      bool
	lpn        uint32
	vol        *volume
	group      *ecGroup
	issue      sim.Time
	arrival    sim.Time // at storage server
	dispatched sim.Time
	deviceDone sim.Time
	redirected bool
	// bounced marks a read the server handed back to the ToR because its
	// vSSD started collecting after the switch had already forwarded it;
	// gcSteered marks a read whose latest attempt was steered away from
	// a collecting target (packet.Packet.GCSteered).
	bounced   bool
	gcSteered bool
	netIn     sim.Time

	// Erasure-coded requests: userLPN is the client's logical page (lpn
	// holds the chunk-local page, i.e. the stripe index), home the data
	// chunk holder's slot, ecPending the outstanding fan-out
	// sub-operations, and retries the client retransmission count after
	// a timeout.
	userLPN   uint32
	home      uint32
	ecPending int
	retries   int

	// Flight-recorder state: span is the request's root trace span (nil
	// when tracing is off — all span methods are nil-safe), lastIssue the
	// issue instant of the current attempt (retransmissions reset it so
	// the retransmit phase is attributable), degraded marks a read served
	// by k-chunk reconstruction.
	span      *trace.Span
	lastIssue sim.Time
	degraded  bool
}

// Rack is one end-to-end experiment instance. Despite the historical
// name it can span several rack fault domains: one ToR switch per rack
// under a spine link (cluster.go), and servers carry their rack index.
// With Config.Racks <= 1 it is exactly the paper's single-rack testbed.
type Rack struct {
	cfg Config
	// res is the Result the run returns. The datapath counts straight
	// into it; Run fills in only the derived totals.
	res *Result
	// eng runs every rack of the cluster, the spine and the scenario
	// driver. Cross-rack traffic goes through the Spine boundary, the
	// seam along which racks can move onto the engines of a
	// sim.ShardGroup.
	eng *sim.Engine
	net *netsim.Network
	// tors holds one ToR switch per rack, and spine is the cross-rack
	// boundary (spine.go). ToR failure injection: a ToR goes Down() at
	// the configured instant, torDetected flips when the heartbeat
	// detector notices and the surviving ToRs take over; torCrashes
	// counts each ToR's failures so a detection timer armed by one
	// outage cannot fire for a later one.
	tors        []*switchsim.Switch
	spine       *Spine
	torDetected []bool
	torCrashes  []int
	servers     []*server
	// pairs holds the replicated volumes, groups the erasure-coded ones;
	// one of the two is empty.
	pairs  []*volume
	groups []*ecGroup
	// insts lists every vSSD instance in creation order: pairs, then
	// erasure-coded groups, each in member order.
	insts []*instance
	rec   *stats.Recorder
	// reqs holds every in-flight request by seq: a client issue or
	// retransmission files it, and completion or the loss detector
	// removes it. Records re-resolve their request here when they fire
	// (records.go). An open-addressed table keyed by the sequential seq
	// (reqtable.go), sized by the requests in flight.
	reqs reqTable
	seq  uint64
	rng  *sim.RNG

	// Pools of the datapath's per-request state and event records (see
	// records.go, and ecgroup.go and gc.go for the erasure-coding and GC
	// control records). They grow lazily to the number in flight.
	states      sim.Pool[reqState]
	requests    sim.Pool[sched.Request]
	hops        sim.Pool[hop]
	ops         sim.Pool[serverOp]
	msgs        sim.Pool[hermesMsg]
	timers      sim.Pool[lossTimer]
	degraded    sim.Pool[degradedRead]
	fetches     sim.Pool[chunkFetch]
	grants      sim.Pool[repairGrant]
	repairsDone sim.Pool[repairDone]
	gcTimers    sim.Pool[gcOpTimer]
	gcBursts    sim.Pool[gcBurstEnd]
	ctrlMsgs    sim.Pool[ctrlMsg]

	clientIP uint32

	// issuing stops at Warmup+Duration; the run drains afterwards.
	stopIssuing sim.Time

	// anyFailure is set when the compiled scenario timeline injects at
	// least one failure, arming the per-request client loss detectors.
	anyFailure bool

	// pacer is the SLO-aware repair rate controller (nil unless
	// Config.RepairSLO enables it).
	pacer *RepairPacer

	// tracer is the flight recorder (nil unless Config.Trace.Enabled; a
	// nil tracer no-ops every call, so the datapath records
	// unconditionally). metrics and metricsWin drive the time-series
	// sampler when Config.MetricsInterval > 0 — metricsWin is a separate
	// read-latency window so sampling shares nothing with the pacer's
	// control loop.
	tracer     *trace.Tracer
	metrics    *stats.TimeSeries
	metricsWin *stats.WindowedQuantile
	// perRackReqs counts request sub-operations arriving at each rack's
	// servers; completedReads/completedWrites count finished logical
	// requests. Plain counters: always maintained, observer-read.
	perRackReqs     []int64
	completedReads  int64
	completedWrites int64
}

// NewRack builds and preconditions a rack per the configuration.
func NewRack(cfg Config) (*Rack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Rack{
		cfg:      cfg,
		res:      &Result{System: cfg.System, Config: cfg},
		eng:      sim.NewEngine(),
		rec:      stats.NewRecorder(),
		rng:      sim.NewRNG(cfg.Seed),
		clientIP: packet.IP4(10, 0, 0, 1),
	}
	// The network's stream forks before the ToRs' drop streams: Fork
	// advances the parent stream, so this order is part of the results.
	r.net = netsim.New(cfg.Net, r.rng.Fork(100))
	r.spine = newSpine(r.eng, &cfg)
	r.buildToRs()
	r.tracer = trace.New(cfg.Trace)
	r.perRackReqs = make([]int64, len(r.tors))
	if cfg.RepairSLO.Enabled() {
		// Validate guarantees Racks > 1, so the spine exists.
		r.pacer = newRepairPacer(r.eng, r.spine.Link(), &cfg)
		r.pacer.tickEv = func(sim.Time) { r.pacerTick() }
	}

	// Servers, rack by rack: server i lives in rack i/StorageServers and
	// addresses as 10.0.<rack>.<16+local>.
	for i := 0; i < cfg.totalServers(); i++ {
		dev, err := ssd.NewDevice(r.eng, cfg.Geometry, cfg.Device)
		if err != nil {
			return nil, err
		}
		rackIdx := i / cfg.StorageServers
		s := &server{
			rack:    r,
			index:   i,
			rackIdx: rackIdx,
			ip:      packet.IP4(10, 0, byte(rackIdx), byte(16+i-rackIdx*cfg.StorageServers)),
			dev:     dev,
			insts:   make(map[uint32]*instance),
		}
		r.servers = append(r.servers, s)
	}
	if cfg.Redundancy.erasure() {
		if err := r.buildGroups(); err != nil {
			return nil, err
		}
	} else {
		if err := r.buildPairs(); err != nil {
			return nil, err
		}
	}
	if r.tracer != nil {
		r.installTraceHooks()
	}
	r.buildGenerators()
	if err := r.precondition(); err != nil {
		return nil, err
	}
	return r, nil
}

// installTraceHooks wires the pure-observer hooks of the lower layers
// into the flight recorder: ToR pipeline dwell becomes a child span on
// the in-flight request, and reconstructor queue transitions become
// control-plane instants. Only called with tracing enabled, and every
// hook only reads state — the traced event sequence stays identical.
func (r *Rack) installTraceHooks() {
	for j, tor := range r.tors {
		j := j
		tor.TraceHook = func(ev switchsim.TraceEvent) {
			if ev.Seq == 0 {
				return // control traffic (gc_op, registration) has no request
			}
			st := r.reqs.get(ev.Seq)
			if st == nil || st.span == nil {
				return
			}
			c := st.span.Child("tor", ev.Arrived)
			c.EndAt(ev.Arrived + ev.Dwell)
			c.Annotate(trace.Int("rack", int64(j)), trace.String("op", ev.Op.String()))
		}
	}
	for _, g := range r.groups {
		g := g
		g.recon.TraceHook = func(op string, t ec.RepairTask) {
			r.tracer.Instant("repair", "recon_"+op, r.eng.Now(),
				trace.Int("group", int64(g.idx)),
				trace.Int("holder", int64(t.Holder)),
				trace.Int("stripes", int64(t.Stripes)))
		}
	}
}

// channelAllocator returns a per-server channel allocator; nextChannel
// tracks allocation across all volumes built with the returned func.
func (r *Rack) channelAllocator() func(*server) ([]int, error) {
	cfg := r.cfg
	nextChannel := make([]int, len(r.servers))
	return func(srv *server) ([]int, error) {
		chs := make([]int, 0, cfg.ChannelsPerVSSD)
		for j := 0; j < cfg.ChannelsPerVSSD; j++ {
			if nextChannel[srv.index] >= cfg.Geometry.Channels {
				return nil, fmt.Errorf("core: server %d out of channels", srv.index)
			}
			chs = append(chs, nextChannel[srv.index])
			nextChannel[srv.index]++
		}
		return chs, nil
	}
}

// buildPairs creates vSSD instances, registers them with the switch, and
// wires Hermes replication between the two instances of each pair.
func (r *Rack) buildPairs() error {
	cfg := r.cfg
	alloc := r.channelAllocator()

	for p := 0; p < cfg.VSSDPairs; p++ {
		priSrv := r.servers[(2*p)%len(r.servers)]
		repSrv := r.servers[(2*p+1)%len(r.servers)]
		priID := uint32(100 + 2*p)
		repID := uint32(100 + 2*p + 1)

		pri, err := r.newInstance(priSrv, priID, alloc)
		if err != nil {
			return err
		}
		rep, err := r.newInstance(repSrv, repID, alloc)
		if err != nil {
			return err
		}
		pri.partner, rep.partner = rep, pri

		// Hermes wiring: node 0 = primary, node 1 = replica.
		peers := []int{0, 1}
		pri.repl = replication.NewNode(0, peers, r.hermesTransport(pri, rep))
		rep.repl = replication.NewNode(1, peers, r.hermesTransport(pri, rep))

		pr := &volume{idx: p}
		r.addMember(pr, pri)
		r.addMember(pr, rep)
		r.drawGenerator(pr, uint64(float64(pri.v.FTL.LogicalPages())*cfg.KeyspaceFrac))
		r.pairs = append(r.pairs, pr)

		// Register both instances in their racks' ToR tables (create_vssd).
		r.torOf(priSrv).Process(packet.Packet{
			Op: packet.OpCreateVSSD, VSSD: priID, SrcIP: priSrv.ip,
			ReplicaVSSD: repID, ReplicaIP: repSrv.ip,
		})
		r.torOf(repSrv).Process(packet.Packet{
			Op: packet.OpCreateVSSD, VSSD: repID, SrcIP: repSrv.ip,
			ReplicaVSSD: priID, ReplicaIP: priSrv.ip,
		})
	}
	r.eng.Run() // drain registration events
	return nil
}

// newInstance creates one vSSD instance (hardware- or software-isolated)
// on a server. In the software-isolated mode each channel set hosts two
// half-size vSSDs forming a channel group; the second member runs a
// mirrored background load through the same group.
func (r *Rack) newInstance(srv *server, id uint32, alloc func(*server) ([]int, error)) (*instance, error) {
	cfg := r.cfg
	channels, err := alloc(srv)
	if err != nil {
		return nil, err
	}
	var v *vssd.VSSD
	var group *vssd.ChannelGroup
	if cfg.SoftwareIsolated {
		// Interleave chips so both group members span the identical
		// channel set — the defining property of software isolation.
		var mine, theirs []ssd.ChipRef
		for _, ch := range channels {
			cc := srv.dev.ChannelChips(ch)
			for i, c := range cc {
				if i%2 == 0 {
					mine = append(mine, c)
				} else {
					theirs = append(theirs, c)
				}
			}
		}
		if len(mine) == 0 || len(theirs) == 0 {
			return nil, fmt.Errorf("core: channel set too small to split for software isolation")
		}
		v, err = vssd.NewSoftwareIsolated(srv.dev, id, mine, cfg.Utilization, swIsolationIOPS)
		if err != nil {
			return nil, err
		}
		peer, err2 := vssd.NewSoftwareIsolated(srv.dev, id+1000, theirs, cfg.Utilization, swIsolationIOPS)
		if err2 != nil {
			return nil, err2
		}
		group, err = vssd.NewChannelGroup(4, v, peer)
		if err != nil {
			return nil, err
		}

	} else {
		v, err = vssd.NewHardwareIsolated(srv.dev, id, channels, cfg.Utilization)
		if err != nil {
			return nil, err
		}
	}

	inst := &instance{
		id: id, v: v, server: srv,
		cache: newWriteCache(writeCachePages),
		peer:  peerOf(group, v),
		queue: sched.New(sched.Config{
			Policy:      cfg.SchedPolicy,
			Coordinated: cfg.coordinated(),
		}),
		pred:            predictor.NewLatency(predictor.DefaultWindow),
		idle:            predictor.NewIdle(predictor.DefaultAlpha, idleGCThreshold),
		maxInflight:     2 * len(channels),
		group:           group,
		replicaIdleHint: true,
	}
	inst.pumpEv = func(sim.Time) { srv.pump(inst) }
	inst.monitorEv = func(sim.Time) { r.monitorGC(inst) }
	srv.insts[id] = inst
	r.insts = append(r.insts, inst)
	return inst, nil
}

// hermesTransport delivers replication messages between the two servers of
// a pair over the simulated network (two hops via the ToR), and applies
// replica writes to the follower's cache.
func (r *Rack) hermesTransport(pri, rep *instance) replication.Transport {
	byNode := func(node int) *instance {
		if node == 0 {
			return pri
		}
		return rep
	}
	return func(msg replication.Message) {
		dst := byNode(msg.To)
		src := byNode(1 - msg.To)
		delay := r.net.PathLatency(r.eng.Now(), 2) +
			r.spine.Latency(src.server.rackIdx, dst.server.rackIdx)
		if src.server.rackIdx != dst.server.rackIdx {
			// Cross-rack replication is foreground spine traffic too:
			// invalidations carry the written page, acks a bare header.
			delay += r.spine.MeterForeground(
				r.spine.MessageBytes(msg.Type == replication.MsgInv), nil)
		}
		m := r.msgs.Get()
		m.dst, m.msg = dst, msg
		r.eng.ScheduleAfter(delay, labelHermesMsg, m)
	}
}

// volumes returns every volume: the replicated pairs, or the
// erasure-coded groups' volumes.
func (r *Rack) volumes() []*volume {
	if len(r.groups) == 0 {
		return r.pairs
	}
	vols := make([]*volume, len(r.groups))
	for i, g := range r.groups {
		vols[i] = &g.volume
	}
	return vols
}

// drawGenerator draws the stream of volume v's workload generator, over
// keys logical pages, from r.rng.
func (r *Rack) drawGenerator(v *volume, keys uint64) {
	v.keys = max(keys, 64)
	v.seed = r.rng.ForkSeed(int64(200 + v.idx))
}

// buildGenerators builds every volume's workload generator from the
// stream drawGenerator drew for it, one sim.Do task per volume. A task
// writes only its own volume's generator, and the generator draws only
// from its own stream, so the generators are the same on any number of
// CPUs.
func (r *Rack) buildGenerators() {
	vols := r.volumes()
	w := r.cfg.Workload
	sim.Do(len(vols), func(i int) {
		v := vols[i]
		rng := sim.NewRNG(v.seed)
		if w.Name == "" || w.Name == "YCSB" {
			v.gen = workload.NewYCSB(rng, v.keys, w.WriteFrac, w.MeanGap)
			return
		}
		gen, err := workload.ByName(w.Name, rng, v.keys, w.MeanGap)
		if err != nil {
			panic(err) // Validate accepted the config; ByName must agree
		}
		v.gen = gen
	})
}

// precondition fills each instance's key space and fragments it until
// roughly half the free blocks are consumed (§4.1), without charging
// virtual time. It runs one sim.Do task per server. A task writes only
// its own server's flash array and the FTLs on it, and each FTL's
// fragmentation stream is seeded from r.rng in instance order before any
// task starts, so the devices and r.rng end up the same on any number
// of CPUs. When writes fail, the lowest-numbered failing server's error
// is returned.
func (r *Rack) precondition() error {
	type job struct {
		v    *vssd.VSSD
		seed int64
	}
	jobs := make([][]job, len(r.servers))
	for _, inst := range r.insts {
		vs := []*vssd.VSSD{inst.v}
		if inst.peer != nil {
			vs = append(vs, inst.peer)
		}
		for _, v := range vs {
			i := inst.server.index
			jobs[i] = append(jobs[i], job{v, r.rng.ForkSeed(int64(300 + inst.id))})
		}
	}
	errs := make([]error, len(r.servers))
	sim.Do(len(r.servers), func(i int) {
		for _, j := range jobs[i] {
			if err := r.preconditionFTL(j.v.FTL, j.seed); err != nil {
				errs[i] = fmt.Errorf("core: preconditioning vSSD %d on server %d: %w", j.v.ID, i, err)
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// preconditionFTL writes every key of ftl once, then overwrites keys
// drawn by a Zipf sampler seeded with seed until ftl's free ratio falls
// to the precondition target.
func (r *Rack) preconditionFTL(ftl *ssd.FTL, seed int64) error {
	keys := int(float64(ftl.LogicalPages()) * r.cfg.KeyspaceFrac)
	if keys < 64 {
		keys = 64
	}
	// No page is stale yet, so garbage collection could free nothing:
	// a failed write here fails the rack.
	for lpn := 0; lpn < keys; lpn++ {
		if _, err := ftl.Write(lpn); err != nil {
			return err
		}
	}
	// Fragment until just above the soft threshold so every system
	// reaches its GC steady state within the compressed simulation
	// horizon (the paper preconditions to 50% free and runs for minutes;
	// this matches where that converges).
	target := r.cfg.SoftThreshold + 0.06
	z := sim.NewZipf(sim.NewRNG(seed), 0.99, uint64(keys))
	for ftl.FreeRatio() > target {
		if _, err := ftl.Write(int(z.Next())); err != nil {
			break
		}
	}
	return nil
}

// peerOf returns the other member of a two-member channel group, nil when
// ungrouped.
func peerOf(g *vssd.ChannelGroup, self *vssd.VSSD) *vssd.VSSD {
	if g == nil {
		return nil
	}
	for _, m := range g.Members {
		if m != self {
			return m
		}
	}
	return nil
}
