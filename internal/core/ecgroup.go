package core

import (
	"slices"

	"rackblox/internal/ec"
	"rackblox/internal/flash"
	"rackblox/internal/packet"
	"rackblox/internal/sched"
	"rackblox/internal/sim"
	"rackblox/internal/trace"
)

// Erasure-coding datapath constants.
const (
	// ecDecodeTime is the CPU cost of one RS(k,m) stripe decode on a
	// degraded read (GF(2^8) matrix-vector over a 4 KB chunk).
	ecDecodeTime = 8 * sim.Microsecond
	// repairBatchStripes is how many stripes one background repair task
	// rebuilds; batching keeps event counts proportional to lost
	// capacity, not pages.
	repairBatchStripes = 64
	// maxECRetries bounds client retransmissions of an erasure-coded
	// request whose sub-operations were swallowed by a crashed server.
	maxECRetries = 5
)

// ecGroup is one erasure-coded volume: k data + m parity chunk holders
// placed on distinct servers, with the client-side generator and the
// background reconstructor that repairs lost chunks in GC idle windows.
// Under the LRC family (Config.Redundancy LocalParityCoded) the member
// list extends past the k+m global holders with one local parity holder
// per occupied rack — the XOR of that rack's global chunks — enabling
// zero-spine single-loss repair and per-rack aggregated multi-loss
// repair.
type ecGroup struct {
	// volume's insts holds the k+m global chunk holders in placement
	// order, followed (LRC only) by the local parity holders in rack
	// order; an instance's slot is its holder index.
	volume
	spec    ec.Spec
	striper ec.Striper

	// usedStripes is how many stripes the preconditioned keyspace
	// touches; reconstruction of a lost chunk covers exactly these.
	usedStripes int

	recon          *ec.Reconstructor
	repairArmed    bool
	repairInFlight bool
	// pumpEv is the group's repair pump, bound once.
	pumpEv sim.EventFunc

	// parity and targets are scratch buffers of writeHolders, valid
	// until the next call.
	parity  []int
	targets []*instance
	// members and plan are the planner's scratch: every member's state
	// (its rack fixed at build) and the last plan, sized in buildGroups.
	members []ec.Member
	plan    ec.Plan

	// Re-integration state: once the reconstructor finishes a lost
	// holder, the adopting member that received the rebuilt chunks is
	// registered as its replacement — reads and writes for the holder's
	// chunks go to it directly, no longer degraded. crashed marks the
	// holders whose server died and was queued for repair at least once
	// (a darkened ToR does not crash holders); repairing marks the
	// holders with a rebuild outstanding right now; reintegratedAt is
	// when the last outstanding holder completed. These tables are
	// indexed by holder.
	replacement []*instance
	crashed     []bool
	repairing   []bool
	// adopterFor pins each lost holder's adopter for the whole repair:
	// every batch programs onto it and re-integration registers it, so
	// a reachability change mid-repair cannot desynchronize where the
	// chunks landed from where reads are steered afterwards. A catch-up
	// repair after server revival pins the original holder itself — the
	// returning box is blank, so the rebuild targets it directly.
	adopterFor     []*instance
	reintegratedAt sim.Time
}

// hasLocalParity reports the LRC family: members past the global k+m
// are per-rack local parity holders.
func (g *ecGroup) hasLocalParity() bool { return len(g.insts) > g.spec.Width() }

// memberTable derives the per-rack stripe-table rows — member ids and
// their racks, in placement order. Both the initial registration
// (buildGroups) and the revival replay (replayToR) install exactly
// these rows, so the two paths cannot drift.
func (g *ecGroup) memberTable() (ids []uint32, racks []int) {
	ids = make([]uint32, len(g.insts))
	racks = make([]int, len(g.insts))
	for i, m := range g.insts {
		ids[i] = m.id
		racks[i] = m.server.rackIdx
	}
	return ids, racks
}

// reintegrated reports whether every holder this group lost has been
// rebuilt and re-registered. A holder is queued for repair only once its
// server crashed, so some holder crashed exactly when one was ever lost.
func (g *ecGroup) reintegrated() bool {
	return slices.Contains(g.crashed, true) && !slices.Contains(g.repairing, true)
}

// buildGroups creates the erasure-coded volumes: for each group, k+m
// chunk-holder instances on distinct servers (rack-aware placement),
// switch registration (create_vssd plus the stripe table), and the
// workload generator over the striped keyspace.
func (r *Rack) buildGroups() error {
	cfg := r.cfg
	spec := cfg.Redundancy.ec()
	placer := cfg.placer()
	alloc := r.channelAllocator()

	for gidx := 0; gidx < cfg.VSSDPairs; gidx++ {
		g := &ecGroup{
			volume:  volume{idx: gidx},
			spec:    spec,
			striper: ec.Striper{Spec: spec},
			recon:   ec.NewReconstructor(),
		}
		g.pumpEv = func(sim.Time) { r.repairPump(g) }
		servers := placer.Place(gidx)
		if cfg.Redundancy.localParity() {
			// The LRC family appends one local parity holder per occupied
			// rack after the k+m global members.
			servers = append(servers, placer.LocalParityServers(gidx, servers)...)
		}
		total := len(servers)
		g.replacement = make([]*instance, total)
		g.crashed = make([]bool, total)
		g.repairing = make([]bool, total)
		g.adopterFor = make([]*instance, total)
		g.members = make([]ec.Member, total)
		g.plan.Sources = make([]ec.Source, 0, total)
		for i, sIdx := range servers {
			srv := r.servers[sIdx]
			g.members[i].Rack = srv.rackIdx
			inst, err := r.newInstance(srv, uint32(100+gidx*total+i), alloc)
			if err != nil {
				return err
			}
			r.addMember(&g.volume, inst)
		}
		// Each holder's partner is the next member in group order. The
		// software controller only consults that one peer's GC state — a
		// weaker stagger than the switch's whole-group check, one of the
		// costs of the software design point.
		for i, inst := range g.insts {
			inst.partner = g.insts[(i+1)%total]
		}

		// Register every chunk holder with its own rack's ToR
		// (create_vssd, replica = the next member in the same rack so
		// non-stripe paths degrade gracefully without leaking remote IPs
		// into the wrong destination table), then install the stripe
		// group — member ids plus their racks — in every involved ToR's
		// per-rack stripe table for degraded routing and handoff.
		for i, inst := range g.insts {
			next := g.sameRackNeighbor(i)
			r.torOf(inst.server).Process(packet.Packet{
				Op: packet.OpCreateVSSD, VSSD: inst.id, SrcIP: inst.server.ip,
				ReplicaVSSD: next.id, ReplicaIP: next.server.ip,
			})
		}
		ids, racks := g.memberTable()
		for _, tor := range g.tors {
			tor.RegisterStripeMembers(ids, racks)
		}

		perChunk := int(float64(g.insts[0].v.FTL.LogicalPages()) * cfg.KeyspaceFrac)
		if perChunk < 1 {
			perChunk = 1
		}
		g.usedStripes = perChunk
		r.drawGenerator(&g.volume, uint64(perChunk)*uint64(spec.K))
		r.groups = append(r.groups, g)
	}
	r.eng.Run() // drain registration events
	return nil
}

// sameRackNeighbor returns the next group member sharing member i's rack
// (the "replica" hint registered with its ToR); with no rack-local
// neighbor the member points at itself, a harmless self-entry.
func (g *ecGroup) sameRackNeighbor(i int) *instance {
	self := g.insts[i]
	n := len(g.insts)
	for d := 1; d < n; d++ {
		m := g.insts[(i+d)%n]
		if m.server.rackIdx == self.server.rackIdx {
			return m
		}
	}
	return self
}

// writeHolders returns the instances a logical write must update: the
// data chunk's holder plus the stripe's m parity holders — and, under
// the LRC family, the local parity holder of every rack those updates
// touch (the honest write amplification of local parity: an updated
// chunk changes its rack's XOR). Members are returned as originally
// placed — the client's volume map never changes; the ToR rewrites
// traffic for failed-over or re-integrated members.
func (g *ecGroup) writeHolders(stripe, pos int) []*instance {
	out := append(g.targets[:0], g.insts[g.striper.DataHolder(stripe, pos)])
	g.parity = g.striper.ParityHolders(g.parity[:0], stripe)
	for _, h := range g.parity {
		out = append(out, g.insts[h])
	}
	if g.hasLocalParity() {
		chunks := len(out)
		for _, lp := range g.insts[g.spec.Width():] {
			if inRack(out[:chunks], lp.server.rackIdx) {
				out = append(out, lp)
			}
		}
	}
	g.targets = out
	return out
}

// inRack reports whether any of members lives in rack.
func inRack(members []*instance, rack int) bool {
	for _, m := range members {
		if m.server.rackIdx == rack {
			return true
		}
	}
	return false
}

// states refreshes the planner's view of every member. busy marks the
// members collecting at now: a read fetches from them last, while repair
// passes none, since repairPump admits a batch only while no member
// collects.
func (g *ecGroup) states(now sim.Time, busy bool) []ec.Member {
	for i, m := range g.insts {
		st := &g.members[i]
		st.Down = !m.server.reachable()
		st.Rebuilding = g.repairing[i]
		st.Busy = busy && m.v.InGC(now)
	}
	return g.members
}

// adopter returns the member that absorbs a lost holder's traffic and
// rebuilt chunks (ec.Spec.Adopter), or nil when every other member is
// unreachable.
func (g *ecGroup) adopter(holder int) *instance {
	if i := g.spec.Adopter(g.states(0, false), holder); i >= 0 {
		return g.insts[i]
	}
	return nil
}

// planFor plans the fetches coord makes to rebuild member want's chunk
// (ec.Spec.Plan); read reports a degraded read at now rather than a
// repair batch. The plan is valid until the next call.
func (g *ecGroup) planFor(want int, coord *instance, now sim.Time, read bool) *ec.Plan {
	g.spec.Plan(&g.plan, g.states(now, read), want, coord.slot)
	return &g.plan
}

// sendEC fans one logical request out to its chunk holders. A write
// updates the data chunk and all m parity chunks (the RS small-write
// amplification); a read goes to the data chunk's holder, and the switch
// steers it to a survivor for degraded reconstruction when that holder
// is collecting or failed. Every holder stores its chunk of stripe s at
// local page s, so all sub-operations share one chunk-local LPN.
func (r *Rack) sendEC(st *reqState) {
	g := st.group
	stripe, pos := g.striper.Stripe(int(st.userLPN))
	st.lpn = uint32(stripe)
	if st.write {
		targets := g.writeHolders(stripe, pos)
		st.ecPending = len(targets)
		r.res.ECSubWrites += int64(len(targets))
		for _, t := range targets {
			r.sendTo(st, t, packet.OpWrite)
		}
		return
	}
	home := g.insts[g.striper.DataHolder(stripe, pos)]
	st.home = uint32(home.slot)
	st.ecPending = 1
	r.sendTo(st, home, packet.OpRead)
}

// startDegradedRead reconstructs a chunk at a surviving holder: the
// switch steered this read away from its home, so the coordinator
// fetches the chunks ec.Spec.Plan picks (its own first) and decodes.
// Remote fetches charge two network hops each way and the source
// device's channel time; they bypass the remote scheduler queue,
// modeling the priority repair lane real EC stores give chunk fetches.
func (s *server) startDegradedRead(inst *instance, req *sched.Request) {
	r := s.rack
	now := r.eng.Now()
	st := r.reqs.get(req.Seq)
	if st.dispatched == 0 {
		st.dispatched = now
	}
	st.redirected = true
	st.degraded = true
	r.res.DegradedReads++
	g := st.group
	stripe := int(st.lpn)
	// A degraded read for a crashed-and-re-integrated holder after the
	// group finished healing should no longer exist: the switch
	// rewrites such reads to the replacement and they are served
	// directly. The only legitimate post-heal steering is the
	// replacement itself collecting or unreachable; everything else
	// (excluding requests issued before the last holder's tables were
	// updated) is a straggler — the lifecycle's health check figrl
	// asserts stays at zero. Collecting is judged by why the read was
	// steered (st.gcSteered), not by the replacement's state now: the
	// GC burst that steered it may have ended before this coordinator
	// started. Holders isolated by a dark ToR are not counted: no repair
	// was queued for them, so there is nothing to have re-integrated.
	home := int(st.home)
	if g.crashed[home] && g.reintegrated() && st.issue > g.reintegratedAt && !st.gcSteered {
		repl := g.replacement[home]
		if repl == nil || repl.server.reachable() {
			r.res.DegradedReadsPostRepair++
		}
	}

	plan := g.planFor(home, inst, now, true)
	sources := plan.Sources
	if plan.Local {
		r.res.LocalDegradedReads++
	} else if !plan.Decodes {
		// More failures than parity: the stripe cannot be reconstructed
		// right now. Serve the local chunk so the request terminates, and
		// surface the loss in the counters (ec.ErrStripeUnrecoverable is
		// the library-level twin of this path).
		r.res.UnrecoverableReads++
		if len(sources) == 0 {
			sources = append(sources, ec.Source{Member: inst.slot})
		} else {
			sources = sources[:1]
		}
	}

	var recSpan *trace.Span
	if st.span != nil {
		recSpan = st.span.Child("reconstruct", now)
		recSpan.Annotate(trace.Int("sources", int64(len(sources))),
			trace.Int("stripe", int64(stripe)))
		if g.hasLocalParity() {
			kind := "aggregated"
			if plan.Local {
				kind = "local_xor"
			}
			recSpan.Annotate(trace.String("plan", kind))
		}
	}
	rd := r.degraded.Get()
	rd.s, rd.inst, rd.req, rd.span, rd.stripe, rd.remaining = s, inst, req, recSpan, stripe, len(sources)
	for _, src := range sources {
		f := r.fetches.Get()
		f.rd, f.src, f.ships = rd, g.insts[src.Member], src.Ships
		if f.src == inst {
			f.read()
			continue
		}
		out := r.net.PathLatency(now, 2)
		if f.src.server.rackIdx != inst.server.rackIdx {
			out += r.spine.Propagation()
		}
		f.step = fetchRead
		r.eng.ScheduleAfter(out, labelECChunkRead, f)
	}
}

// degradedRead is one k-chunk reconstruction coordinated at inst: it
// counts the chunk fetches still out and, once the last chunk is back,
// decodes and completes the read.
type degradedRead struct {
	s         *server
	inst      *instance
	req       *sched.Request
	span      *trace.Span
	stripe    int
	remaining int
}

// chunkArrived counts one fetched chunk in; the last one starts the
// decode.
func (d *degradedRead) chunkArrived() {
	d.remaining--
	if d.remaining == 0 {
		d.s.rack.eng.ScheduleAfter(ecDecodeTime, labelECDecode, d)
	}
}

// Fire completes the read once the decode is done.
func (d *degradedRead) Fire(now sim.Time) {
	s, inst, req, span := d.s, d.inst, d.req, d.span
	*d = degradedRead{}
	s.rack.degraded.Put(d)
	span.EndAt(now)
	s.completeRead(inst, req)
}

// fetchStep is the stage of a chunk fetch a chunkFetch resumes.
type fetchStep uint8

const (
	// fetchRead reads the chunk once the request reached its source.
	fetchRead fetchStep = iota
	// fetchSend sends the chunk back once the source's flash read it.
	fetchSend
	// fetchShipped takes the remote rack's edge hops once the chunk
	// crossed the spine.
	fetchShipped
	// fetchBack hands the chunk to the coordinator.
	fetchBack
)

// chunkFetch is one source's part of a degraded read: the request to the
// source, its flash read, and the chunk's trip back to the coordinator.
type chunkFetch struct {
	rd   *degradedRead
	src  *instance
	step fetchStep
	// ships marks a chunk that crosses the spine (ec.Source.Ships).
	ships bool
}

func (f *chunkFetch) Fire(sim.Time) {
	r := f.rd.s.rack
	switch f.step {
	case fetchRead:
		f.read()
	case fetchSend:
		f.send()
	case fetchShipped:
		f.step = fetchBack
		back := r.spine.Propagation() + r.net.PathLatency(r.eng.Now(), 2)
		r.eng.ScheduleAfter(back, labelECChunkBack, f)
	case fetchBack:
		rd := f.rd
		*f = chunkFetch{}
		r.fetches.Put(f)
		rd.chunkArrived()
	}
}

// read charges the chunk's flash read on the source.
func (f *chunkFetch) read() {
	addr, err := f.src.v.FTL.Read(f.rd.stripe)
	if err != nil {
		// Chunk outside the preconditioned range still costs one device
		// read on the source's first channel.
		addr = flash.Addr{Channel: f.src.v.Channels()[0]}
	}
	f.step = fetchSend
	f.src.server.dev.TimeRead(addr, f)
}

// send returns the read chunk to the coordinator: at once for its own
// chunk, over the metered spine and then the remote-rack edge hops for a
// shipping cross-rack source, and over two edge hops otherwise — which,
// for a cross-rack survivor that only feeds its rack's partial sum, is
// the rack-local hop to the shipper.
func (f *chunkFetch) send() {
	rd := f.rd
	r := rd.s.rack
	if f.src == rd.inst {
		*f = chunkFetch{}
		r.fetches.Put(f)
		rd.chunkArrived()
		return
	}
	if f.ships {
		f.step = fetchShipped
		fs, fe := r.spine.CrossFetch(int64(r.cfg.Geometry.PageSize), f)
		if rd.span != nil {
			if tnow := r.eng.Now(); fs > tnow {
				rd.span.Child("spine_wait", tnow).EndAt(fs)
			}
			rd.span.Child("spine_xfer", fs).EndAt(fe)
		}
		return
	}
	f.step = fetchBack
	r.eng.ScheduleAfter(r.net.PathLatency(r.eng.Now(), 2), labelECChunkBack, f)
}

// scheduleRepair arms the group's repair pump one monitor period out.
func (r *Rack) scheduleRepair(g *ecGroup) {
	if g.repairArmed {
		return
	}
	g.repairArmed = true
	r.eng.ScheduleAfter(gcCheckInterval, labelECRepairPump, g.pumpEv)
}

// repairPump admits background chunk reconstruction only in the
// switch-observed GC idle window: the repair coordinator reads the ToR's
// per-member GC bits (the same state soft gc_ops consult) and backs off
// while any member collects, so repair traffic never competes with a
// foreground GC episode for the group's channels. With the SLO pacer
// active (Config.RepairSLO) a second gate follows: the claim is cut to
// the pacer's token-sized stripe limit and waits in the spine token lane
// until the AIMD-controlled admission rate matures enough credit, so
// repair also never holds the foreground tail above the SLO target.
func (r *Rack) repairPump(g *ecGroup) {
	g.repairArmed = false
	if g.repairInFlight || g.recon.Pending() == 0 {
		return
	}
	for _, m := range g.insts {
		if !m.server.reachable() {
			continue
		}
		if r.torOf(m.server).GCStatus(m.id) {
			g.recon.Delayed()
			r.scheduleRepair(g)
			return
		}
	}
	// Tasks are enqueued in batches of at most repairBatchStripes, so
	// the unpaced claim limit is a no-op split; the pacer cuts it down
	// to its token size.
	limit := repairBatchStripes
	if r.pacer != nil {
		limit = r.pacer.batchStripes()
	}
	task, ok := g.recon.NextUpTo(limit)
	if !ok {
		return
	}
	g.repairInFlight = true
	if r.pacer == nil {
		r.runRepairTask(g, task, 0)
		return
	}
	// A zero-spine local-XOR plan (LRC, in-rack adopter, healthy rack)
	// moves no cross-rack bytes, so it claims no spine tokens: it runs
	// immediately instead of idling the rack behind the admission lane.
	if adopter := g.adopterFor[task.Holder]; adopter != nil && adopter.server.reachable() &&
		g.planFor(task.Holder, adopter, 0, false).Local {
		r.runRepairTask(g, task, 0)
		return
	}
	// The token charge is the rebuilt chunk volume; the GC idle window
	// was checked at claim time and the grant re-validates liveness in
	// runRepairTask, like any task that waited in a queue.
	charge := int64(task.Stripes) * int64(r.cfg.Geometry.PageSize)
	grant := r.grants.Get()
	grant.r, grant.g, grant.task, grant.charged = r, g, task, charge
	r.pacer.admit(charge, grant)
}

// repairGrant runs one claimed repair batch once the pacer's token lane
// admits it.
type repairGrant struct {
	r       *Rack
	g       *ecGroup
	task    ec.RepairTask
	charged int64
}

func (a *repairGrant) Fire(sim.Time) {
	r, g, task, charged := a.r, a.g, a.task, a.charged
	*a = repairGrant{}
	r.grants.Put(a)
	r.runRepairTask(g, task, charged)
}

// runRepairTask rebuilds one batch of a lost holder's chunks: chunk
// reads from the sources ec.Spec.Plan picks for the adopter, the
// decode, and the programs that land the rebuilt chunks on the adopting
// holder. Channel time is charged in bulk per batch; each shipping
// source serializes its batch bytes through the cluster link. charged
// is the admission charge the pacer already collected for this task (0
// when unpaced or admitted via the token-free local plan); settle
// reconciles it against the actual spine bytes.
func (r *Rack) runRepairTask(g *ecGroup, task ec.RepairTask, charged int64) {
	now := r.eng.Now()
	// batchBytes is the spine cost of one batch crossing below; the
	// settle calls reconcile the admission charge against the actual
	// cross-rack fan-out once known (or the task dies without moving
	// anything).
	batchBytes := int64(task.Stripes) * int64(r.cfg.Geometry.PageSize)
	// The adopter is pinned per holder: the first batch picks it and
	// every later batch (and the final re-integration) targets the same
	// member. If it has since become unreachable, the batches already
	// programmed onto it are gone with it, so the holder's repair
	// restarts from scratch onto a fresh adopter — counting the dead
	// adopter's batches toward completion would register a replacement
	// that never received the early chunks.
	adopter := g.adopterFor[task.Holder]
	if adopter == nil || !adopter.server.reachable() {
		g.repairInFlight = false
		if r.pacer != nil {
			r.pacer.settle(charged, 0) // refund: nothing moved
		}
		if next := g.adopter(task.Holder); next != nil {
			r.enqueueHolderRepair(g, task.Holder, next)
		}
		// With no reachable member left there is nothing to rebuild
		// onto; the unrecoverable-read counter exposes the loss.
		return
	}
	plan := g.planFor(task.Holder, adopter, 0, false)
	if !plan.Decodes {
		// Unrecoverable with the current survivors: drop the task; the
		// unrecoverable-read counter already exposes the data loss.
		g.repairInFlight = false
		if r.pacer != nil {
			r.pacer.settle(charged, 0) // refund: nothing moved
		}
		r.scheduleRepair(g)
		return
	}

	// One always-kept repair span per batch; the key folds group and
	// holder so every holder's batches share one Perfetto row.
	sp := r.tracer.StartSpan("repair", "repair",
		uint64(g.idx)*64+uint64(task.Holder), now)
	sp.Annotate(trace.Int("group", int64(g.idx)), trace.Int("holder", int64(task.Holder)),
		trace.Int("first_stripe", int64(task.FirstStripe)),
		trace.Int("stripes", int64(task.Stripes)))

	var end sim.Time
	var crossBytes int64
	readDur := sim.Time(task.Stripes) * r.cfg.Device.ReadPage
	for _, src := range plan.Sources {
		m := g.insts[src.Member]
		chs := m.v.Channels()
		_, e := m.server.dev.OccupyChannel(chs[task.FirstStripe%len(chs)], readDur)
		if src.Ships {
			// The batch crosses the spine: meter it on the shared link.
			crossBytes += batchBytes
			if _, te := r.spine.CrossFetch(batchBytes, nil); te+r.spine.Propagation() > e {
				e = te + r.spine.Propagation()
			}
		}
		if e > end {
			end = e
		}
	}
	if plan.Local {
		r.res.LocalRepairStripes += int64(task.Stripes)
	} else if g.hasLocalParity() && crossBytes > 0 {
		r.res.AggregatedRepairStripes += int64(task.Stripes)
	}
	if r.pacer != nil {
		// Settle the admission charge against the real spine fan-out:
		// extra remote sources become token debt, an all-local batch a
		// refund.
		r.pacer.settle(charged, crossBytes)
	}
	progDur := sim.Time(task.Stripes) * r.cfg.Device.ProgramPage
	achs := adopter.v.Channels()
	if _, e := adopter.server.dev.OccupyChannel(achs[task.FirstStripe%len(achs)], progDur); e > end {
		end = e
	}
	end += sim.Time(task.Stripes)*ecDecodeTime + r.net.PathLatency(now, 2)
	done := r.repairsDone.Get()
	done.r, done.g, done.task, done.span, done.crossBytes = r, g, task, sp, crossBytes
	r.eng.Schedule(end, labelECRepairDone, done)
}

// repairDone lands one repair batch once its reads, decode and programs
// are through, and re-arms the group's repair pump.
type repairDone struct {
	r          *Rack
	g          *ecGroup
	task       ec.RepairTask
	span       *trace.Span
	crossBytes int64
}

func (d *repairDone) Fire(now sim.Time) {
	r, g, task, sp, crossBytes := d.r, d.g, d.task, d.span, d.crossBytes
	*d = repairDone{}
	r.repairsDone.Put(d)
	sp.Annotate(trace.Int("cross_bytes", crossBytes))
	sp.Finish(now)
	r.res.RepairCompletionTime = now
	if g.recon.Done(task) {
		r.reintegrate(g, task.Holder)
	}
	g.repairInFlight = false
	r.scheduleRepair(g)
}

// reintegrate closes the repair loop for one fully rebuilt holder: the
// member the reconstructor rebuilt onto becomes the holder's
// replacement. After the control-plane propagation delay every ToR
// serving the group updates its stripe table: an adopting member is
// swapped in for the dead one (switchsim.ReplaceStripeMember), while a
// catch-up repair that landed the chunks back on the revived original
// re-registers the holder under its own id
// (switchsim.RestoreStripeMember). Either way the failover and
// remote-dead entries are cleared, so post-repair reads stop paying the
// degraded-reconstruction cost. The client's volume map never changes
// (writeHolders): the ToRs rewrite its traffic, and only the last
// deferred update, once the slowest ToR has the replacement installed,
// records it in g.replacement, where servers look up who serves a
// rewritten read directly.
func (r *Rack) reintegrate(g *ecGroup, holder int) {
	// Register the member the repair actually rebuilt onto — never
	// recomputed, so the replacement always holds the chunks.
	adopter := g.adopterFor[holder]
	if adopter == nil {
		return // everyone died since the repair was queued
	}
	restored := adopter == g.insts[holder]
	oldID, newID := g.insts[holder].id, adopter.id
	// The control-plane updates below are deferred by propagation delay;
	// if the holder is lost again meanwhile (its repair generation moves
	// on), the stale registrations must not land.
	gen := g.recon.Gen(holder)
	fresh := func() bool { return g.recon.Gen(holder) == gen }
	hop := r.net.HopLatency(r.eng.Now())
	var last sim.Time
	for _, tor := range g.tors {
		delay := hop + r.spine.Latency(adopter.server.rackIdx, tor.RackID())
		if delay > last {
			last = delay
		}
		r.eng.ScheduleAfter(delay, labelECReintegrate, sim.EventFunc(func(sim.Time) {
			if tor.Down() || !fresh() {
				return // a dark ToR misses the update; revival replays it
			}
			tor.RegisterDest(newID, adopter.server.ip)
			if restored {
				tor.RestoreStripeMember(oldID)
			} else {
				tor.ReplaceStripeMember(oldID, newID)
			}
		}))
	}
	// The holder counts as re-integrated once the slowest ToR has the
	// replacement installed; reads issued after this instant are served
	// directly everywhere.
	r.eng.ScheduleAfter(last, labelECReintegrate, sim.EventFunc(func(sim.Time) {
		if !fresh() {
			return
		}
		g.replacement[holder] = adopter
		g.repairing[holder] = false
		g.reintegratedAt = r.eng.Now()
		// Every holder stores one chunk of each of the group's
		// usedStripes stripes, so one completed holder re-integrates
		// exactly that many.
		r.res.ReintegratedStripes += int64(g.usedStripes)
		if restored {
			r.res.RestoredHolders++
		}
		mode := "replacement"
		if restored {
			mode = "restored"
		}
		r.tracer.Instant("repair", "reintegrate", r.eng.Now(),
			trace.Int("group", int64(g.idx)), trace.Int("holder", int64(holder)),
			trace.String("mode", mode))
	}))
}
