package core

import (
	"fmt"

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
	id        uint32
	v         *vssd.VSSD
	server    *server
	pairIdx   int
	replicaID uint32
	primary   bool

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
	gcEvents          int
	gcDelayed         int
	bgGCEvents        int
	// replicaIdleHint caches the controller's answer for software
	// (server-side) redirection in RackBlox (Software).
	replicaIdleHint bool
}

// pair is a primary+replica vSSD pair with its client-side generator.
type pair struct {
	idx      int
	primary  *instance
	replica  *instance
	gen      workload.Generator
	inflight int
	// issueEv is the pair's next client arrival, bound once.
	issueEv sim.EventFunc
}

// reqState tracks one request across the rack for latency breakdown.
// Exactly one of pair and group is set: pair for replicated volumes,
// group for erasure-coded ones.
type reqState struct {
	seq        uint64
	write      bool
	lpn        uint32
	pair       *pair
	group      *ecGroup
	issue      sim.Time
	arrival    sim.Time // at storage server
	dispatched sim.Time
	deviceDone sim.Time
	redirected bool
	// bounced marks a read the server handed back to the ToR because its
	// vSSD started collecting after the switch had already forwarded it.
	bounced bool
	netIn   sim.Time

	// Erasure-coded requests: userLPN is the client's logical page (lpn
	// holds the chunk-local page, i.e. the stripe index), homeID the data
	// chunk's holder, ecPending the outstanding fan-out sub-operations,
	// and retries the client retransmission count after a timeout.
	userLPN   uint32
	homeID    uint32
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

// decInflight releases the client-window slot of the owning volume.
func (st *reqState) decInflight() {
	if st.pair != nil {
		st.pair.inflight--
	} else if st.group != nil {
		st.group.inflight--
	}
}

// Rack is one end-to-end experiment instance. Despite the historical
// name it can span several rack fault domains: the embedded Cluster
// composes per-rack ToR switches under a spine link, and servers carry
// their rack index. With Config.Racks <= 1 it is exactly the paper's
// single-rack testbed.
type Rack struct {
	cfg Config
	// eng runs every rack of the cluster, the spine and the scenario
	// driver. Cross-rack traffic goes through the Spine boundary, the
	// seam along which racks can move onto the engines of a
	// sim.ShardGroup.
	eng     *sim.Engine
	net     *netsim.Network
	cluster *Cluster
	// sw aliases the first rack's ToR for the single-rack call sites and
	// tests; multi-rack paths go through torOf/cluster.
	sw      *switchsim.Switch
	servers []*server
	pairs   []*pair
	groups  []*ecGroup
	insts   map[uint32]*instance
	rec     *stats.Recorder
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
	// controller models the VDC controller server used by VDC and
	// RackBlox (Software); nil otherwise.
	controller *controller

	// issuing stops at Warmup+Duration; the run drains afterwards.
	stopIssuing sim.Time

	// anyFailure is set when the compiled scenario timeline injects at
	// least one failure, arming the per-request client loss detectors.
	anyFailure bool

	// pacer is the SLO-aware repair rate controller (nil unless
	// Config.RepairSLO enables it); lastRepairDone is the instant the
	// most recent repair batch completed — once the queues drain, the
	// repair completion time of the run.
	pacer          *RepairPacer
	lastRepairDone sim.Time

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

	// counters
	failovers     int64
	lostRequests  int64
	bounces       int64
	cacheHits     int64
	staleRetries  int64
	forcedGCs     int64
	swRedirects   int64
	gcOpsSent     int64
	gcOpRetries   int64
	delayedByCtrl int64

	// erasure-coding counters
	degradedReads      int64
	unrecoverableReads int64
	ecSubWrites        int64
	ecRetransmits      int64
	lostReads          int64

	// LRC code-family counters: stripes repaired entirely inside one
	// rack (zero spine bytes), stripes repaired with per-rack aggregated
	// cross-rack fetches, and degraded reads served by the rack-local
	// XOR plan.
	localRepairStripes int64
	aggRepairStripes   int64
	localDegradedReads int64

	// recovery-lifecycle counters
	reintegratedStripes     int64
	degradedReadsPostRepair int64
	restoredHolders         int64
}

// NewRack builds and preconditions a rack per the configuration.
func NewRack(cfg Config) (*Rack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Rack{
		cfg:      cfg,
		eng:      sim.NewEngine(),
		rec:      stats.NewRecorder(),
		insts:    make(map[uint32]*instance),
		rng:      sim.NewRNG(cfg.Seed),
		clientIP: packet.IP4(10, 0, 0, 1),
	}
	r.net = netsim.New(cfg.Net, r.rng.Fork(100))
	r.cluster = newCluster(r)
	r.sw = r.cluster.tors[0]
	r.tracer = trace.New(cfg.Trace)
	r.perRackReqs = make([]int64, r.cluster.racks)
	if cfg.RepairSLO.Enabled() {
		// Validate guarantees Racks > 1, so the spine exists.
		r.pacer = newRepairPacer(r.eng, r.cluster.spine.Link(), &cfg)
		r.pacer.tickEv = func(sim.Time) { r.pacerTick() }
	}

	// Servers, rack by rack: server i lives in rack i/StorageServers and
	// addresses as 10.0.<rack>.<16+local>.
	for i := 0; i < cfg.totalServers(); i++ {
		dev, err := ssd.NewDevice(r.eng, cfg.Geometry, cfg.Device)
		if err != nil {
			return nil, err
		}
		rackIdx := r.cluster.RackOf(i)
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
	if cfg.System == RackBloxSoftware {
		r.controller = newController(r)
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
	r.precondition()
	return r, nil
}

// installTraceHooks wires the pure-observer hooks of the lower layers
// into the flight recorder: ToR pipeline dwell becomes a child span on
// the in-flight request, and reconstructor queue transitions become
// control-plane instants. Only called with tracing enabled, and every
// hook only reads state — the traced event sequence stays identical.
func (r *Rack) installTraceHooks() {
	for j, tor := range r.cluster.tors {
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

		pri, err := r.newInstance(priSrv, priID, repID, p, true, alloc)
		if err != nil {
			return err
		}
		rep, err := r.newInstance(repSrv, repID, priID, p, false, alloc)
		if err != nil {
			return err
		}

		// Hermes wiring: node 0 = primary, node 1 = replica.
		peers := []int{0, 1}
		pri.repl = replication.NewNode(0, peers, r.hermesTransport(pri, rep))
		rep.repl = replication.NewNode(1, peers, r.hermesTransport(pri, rep))

		pr := &pair{idx: p, primary: pri, replica: rep}
		pr.gen = r.newGenerator(p, pri)
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
		if r.controller != nil {
			r.controller.register(pri, rep)
		}
	}
	r.eng.Run() // drain registration events
	return nil
}

// newInstance creates one vSSD instance (hardware- or software-isolated)
// on a server. In the software-isolated mode each channel set hosts two
// half-size vSSDs forming a channel group; the second member runs a
// mirrored background load through the same group.
func (r *Rack) newInstance(srv *server, id, replicaID uint32, pairIdx int, primary bool,
	alloc func(*server) ([]int, error)) (*instance, error) {

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
		id: id, v: v, server: srv, pairIdx: pairIdx,
		replicaID: replicaID, primary: primary,
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
	r.insts[id] = inst
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
			r.cluster.spine.Latency(src.server.rackIdx, dst.server.rackIdx)
		if src.server.rackIdx != dst.server.rackIdx {
			// Cross-rack replication is foreground spine traffic too:
			// invalidations carry the written page, acks a bare header.
			delay += r.cluster.spine.MeterForeground(
				r.cluster.spine.MessageBytes(msg.Type == replication.MsgInv))
		}
		m := r.msgs.Get()
		m.dst, m.msg = dst, msg
		r.eng.ScheduleAfter(delay, labelHermesMsg, m)
	}
}

// newGenerator builds the pair's workload generator sized to the primary's
// preconditioned key space.
func (r *Rack) newGenerator(p int, pri *instance) workload.Generator {
	keys := uint64(float64(pri.v.FTL.LogicalPages()) * r.cfg.KeyspaceFrac)
	return r.makeGenerator(p, keys)
}

// makeGenerator builds one volume's workload generator over keys logical
// pages.
func (r *Rack) makeGenerator(volume int, keys uint64) workload.Generator {
	cfg := r.cfg
	if keys < 64 {
		keys = 64
	}
	rng := r.rng.Fork(int64(200 + volume))
	if cfg.Workload.Name == "" || cfg.Workload.Name == "YCSB" {
		return workload.NewYCSB(rng, keys, cfg.Workload.WriteFrac, cfg.Workload.MeanGap)
	}
	gen, err := workload.ByName(cfg.Workload.Name, rng, keys, cfg.Workload.MeanGap)
	if err != nil {
		panic(err) // Validate accepted the config; ByName must agree
	}
	return gen
}

// allInstances returns every vSSD instance in deterministic volume order
// (pairs, then erasure-coded groups).
func (r *Rack) allInstances() []*instance {
	out := make([]*instance, 0, 2*len(r.pairs))
	for _, pr := range r.pairs {
		out = append(out, pr.primary, pr.replica)
	}
	for _, g := range r.groups {
		out = append(out, g.insts...)
	}
	return out
}

// precondition fills each instance's key space and fragments it until
// roughly half the free blocks are consumed (§4.1), without charging
// virtual time.
func (r *Rack) precondition() {
	for _, inst := range r.allInstances() {
		ftls := []*ssd.FTL{inst.v.FTL}
		if inst.peer != nil {
			ftls = append(ftls, inst.peer.FTL)
		}
		for _, ftl := range ftls {
			keys := int(float64(ftl.LogicalPages()) * r.cfg.KeyspaceFrac)
			if keys < 64 {
				keys = 64
			}
			for lpn := 0; lpn < keys; lpn++ {
				if _, err := ftl.Write(lpn); err != nil {
					ftl.CollectOnce()
					lpn--
				}
			}
			// Fragment until just above the soft threshold so every
			// system reaches its GC steady state within the compressed
			// simulation horizon (the paper preconditions to 50% free and
			// runs for minutes; this matches where that converges).
			target := r.cfg.SoftThreshold + 0.06
			z := sim.NewZipf(r.rng.Fork(int64(300+inst.id)), 0.99, uint64(keys))
			for ftl.FreeRatio() > target {
				if _, err := ftl.Write(int(z.Next())); err != nil {
					break
				}
			}
		}
	}
}

// Keyspace returns the per-volume logical key count the workload touches.
func (r *Rack) Keyspace() int {
	if len(r.groups) > 0 {
		g := r.groups[0]
		perChunk := int(float64(g.insts[0].v.FTL.LogicalPages()) * r.cfg.KeyspaceFrac)
		return perChunk * g.spec.K
	}
	ftl := r.pairs[0].primary.v.FTL
	return int(float64(ftl.LogicalPages()) * r.cfg.KeyspaceFrac)
}

// Engine exposes the simulation engine (tests).
func (r *Rack) Engine() *sim.Engine { return r.eng }

// Switch exposes the first rack's ToR switch (tests).
func (r *Rack) Switch() *switchsim.Switch { return r.sw }

// Cluster exposes the multi-rack topology layer (tests).
func (r *Rack) Cluster() *Cluster { return r.cluster }

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
