package core

import (
	"rackblox/internal/packet"
	"rackblox/internal/sim"
	"rackblox/internal/stats"
	"rackblox/internal/switchsim"
	"rackblox/internal/trace"
)

// startClients schedules the first request of every volume. Each
// volume's client issues its workload open-loop (Poisson-style gaps from
// the generator) until stopIssuing. In the software-isolated mode the
// collocated tenant of each channel group also runs a background write
// load (Fig. 21 runs YCSB on both group members).
func (r *Rack) startClients() {
	for _, g := range r.groups {
		g := g
		g.issueEv = func(sim.Time) { r.issue(&g.volume, g) }
		r.eng.ScheduleAfter(g.gen.NextGap(), labelClientIssueEC, g.issueEv)
	}
	for i, pr := range r.pairs {
		pr := pr
		pr.issueEv = func(sim.Time) { r.issue(pr, nil) }
		r.eng.ScheduleAfter(pr.gen.NextGap(), labelClientIssue, pr.issueEv)
		if r.cfg.SoftwareIsolated {
			for j, inst := range pr.insts {
				inst := inst
				rng := r.rng.Fork(int64(400 + 2*i + j))
				keys := uint64(float64(inst.peer.FTL.LogicalPages()) * r.cfg.KeyspaceFrac)
				if keys < 64 {
					keys = 64
				}
				z := sim.NewZipf(rng, 0.99, keys)
				r.eng.ScheduleAfter(rng.Exp(r.cfg.Workload.MeanGap), labelClientPeerLoad, sim.EventFunc(func(sim.Time) {
					r.peerLoad(inst, z, rng)
				}))
			}
		}
	}
}

// peerLoad drives the collocated software-isolated tenant with writes that
// consume its free blocks and occupy the shared channels.
func (r *Rack) peerLoad(inst *instance, z *sim.Zipf, rng *sim.RNG) {
	now := r.eng.Now()
	if now < r.stopIssuing {
		r.eng.ScheduleAfter(rng.Exp(2*r.cfg.Workload.MeanGap), labelClientPeerLoad, sim.EventFunc(func(sim.Time) {
			r.peerLoad(inst, z, rng)
		}))
	}
	lpn := int(z.Next())
	addr, err := inst.peer.FTL.Write(lpn)
	if err != nil {
		// The peer is out of space: the channel group rebalances or
		// collects at the next monitor round; drop this write.
		return
	}
	inst.server.dev.TimeProgram(addr, nil)
}

// issue sends one request from a volume's generator and schedules the
// next arrival; g is the volume's erasure-coded group, nil for a
// replicated pair. A full client window skips this arrival (semi-open
// loop).
func (r *Rack) issue(v *volume, g *ecGroup) {
	now := r.eng.Now()
	if now < r.stopIssuing {
		l := labelClientIssue
		if g != nil {
			l = labelClientIssueEC
		}
		r.eng.ScheduleAfter(v.gen.NextGap(), l, v.issueEv)
	}
	if r.cfg.MaxClientInflight > 0 && v.inflight >= r.cfg.MaxClientInflight {
		return
	}

	op := v.gen.Next()
	r.seq++
	st := r.states.Get()
	st.seq, st.write, st.vol, st.group = r.seq, op.Write, v, g
	st.lpn, st.userLPN = op.LPN, op.LPN
	st.issue, st.lastIssue = now, now
	st.span = r.tracer.StartRequest(st.seq, reqKind(op.Write), now)
	st.span.Annotate(trace.Int("lpn", int64(op.LPN)), trace.Int("volume", int64(v.idx)))
	r.reqs.put(st)
	v.inflight++
	r.watchTimeout(st.seq)
	switch {
	case g != nil:
		r.sendEC(st)
	case op.Write:
		r.sendTo(st, v.insts[0], packet.OpWrite)
	default:
		r.sendTo(st, v.insts[0], packet.OpRead)
	}
}

// sendTo emits one client packet of st toward member inst. It enters
// the network at inst's ToR or, once that rack's ToR failure is
// detected, at the first up ToR serving the volume, whose failover (and,
// for erasure coding, handoff) tables route around the dark rack. A
// detected ToR is down, so a pair whose primary's rack went dark enters
// at the replica's ToR when that is another, live one. The client homes
// next to rack 0: entering any other rack's ToR also crosses the spine,
// metered as foreground traffic on the shared link.
func (r *Rack) sendTo(st *reqState, inst *instance, op packet.Op) {
	pkt := packet.Packet{
		Op:    op,
		SrcIP: r.clientIP,
		DstIP: inst.server.ip,
		Port:  packet.ReservedPort,
		VSSD:  inst.id,
		LPN:   st.lpn,
		Seq:   st.seq,
	}
	tor := r.torOf(inst.server)
	if r.torDetected[inst.server.rackIdx] {
		for _, alt := range st.vol.tors {
			if !alt.Down() {
				tor = alt
				break
			}
		}
	}
	// Client -> ToR hop; INT accumulates the measured latency.
	hop := r.net.HopLatency(r.eng.Now()) + r.spine.Latency(0, tor.RackID())
	if tor.RackID() != 0 {
		hop += r.spine.MeterForeground(r.spine.FrameBytes(pkt), st.span)
	}
	pkt.AddLatency(hop)
	r.toTor(hop, labelNetClientSend, tor, pkt)
}

// reqKind names a request's root span kind.
func reqKind(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// spanFor resolves the root span of an in-flight request, nil when the
// request is unknown or tracing is off.
func (r *Rack) spanFor(seq uint64) *trace.Span {
	if r.tracer == nil || seq == 0 {
		return nil
	}
	if st := r.reqs.get(seq); st != nil {
		return st.span
	}
	return nil
}

// forwarderFor builds the delivery path out of one rack's ToR: packets
// to destinations in other racks cross the spine (added latency) and are
// lost if the destination rack's own ToR is down — a dark rack is
// unreachable even when its servers still run.
func (r *Rack) forwarderFor(torRack int) switchsim.Forwarder {
	return func(pkt packet.Packet) { r.deliverFromTor(torRack, pkt) }
}

func (r *Rack) deliverFromTor(torRack int, pkt packet.Packet) {
	// Resolve the destination up front: the spine latency depends on it.
	dstSrv := r.serverByIP(pkt.DstIP)
	dstRack := 0 // the client homes next to rack 0
	if dstSrv != nil {
		dstRack = dstSrv.rackIdx
	}
	hop := r.net.HopLatency(r.eng.Now()) + r.spine.Latency(torRack, dstRack)
	if torRack != dstRack {
		// Leaving the rack: the packet pays for (and occupies) the
		// shared spine alongside repair transfers.
		hop += r.spine.MeterForeground(r.spine.FrameBytes(pkt), r.spanFor(pkt.Seq))
	}
	pkt.AddLatency(hop)
	r.sendHop(hop, labelNetDeliver, hopDeliver, pkt, nil, dstSrv, torRack)
}

// serverByIP resolves a server from its address in O(1): servers address
// as 10.0.<rack>.<16+local> (NewRack), so the index is decoded from the
// IP. The client's and any other address resolve to nil.
func (r *Rack) serverByIP(ip uint32) *server {
	if ip>>16 != 10<<8 {
		return nil
	}
	rack, local := int(ip>>8&0xff), int(ip&0xff)-16
	if local < 0 || local >= r.cfg.StorageServers || rack >= len(r.tors) {
		return nil
	}
	if s := r.servers[rack*r.cfg.StorageServers+local]; s.ip == ip {
		return s
	}
	return nil
}

// arrive lands a packet that left rack torRack's ToR at its destination:
// the client, or server dstSrv (resolved when it left). Packets to any
// other address are dropped.
func (r *Rack) arrive(torRack int, dstSrv *server, pkt packet.Packet) {
	if pkt.DstIP == r.clientIP {
		r.clientReceive(pkt)
		return
	}
	if dstSrv == nil {
		return
	}
	if dstSrv.rackIdx != torRack && r.tors[dstSrv.rackIdx].Down() {
		return // cross-rack delivery dead-ends at the failed ToR
	}
	// RackBlox (Software) redirection happens here, at the server
	// boundary rather than in the switch.
	if pkt.Op == packet.OpRead && r.cfg.System == RackBloxSoftware && r.softwareRedirect(dstSrv, pkt) {
		r.res.SWRedirects++
		return
	}
	dstSrv.receive(pkt)
}

// softwareRedirect implements RackBlox (Software)'s server-side read
// redirection: if the target vSSD is collecting and the server's cached
// controller hint says the replica is idle, the server forwards the read
// to the replica server itself — an extra 2-hop trip the hardware design
// avoids. It reports whether it forwarded the read.
func (r *Rack) softwareRedirect(s *server, pkt packet.Packet) bool {
	inst, ok := s.insts[pkt.VSSD]
	if !ok || !inst.v.InGC(r.eng.Now()) || !inst.replicaIdleHint {
		return false
	}
	rep := inst.partner
	if rep.v.InGC(r.eng.Now()) {
		return false
	}
	fwd := pkt
	fwd.VSSD = rep.id
	fwd.DstIP = rep.server.ip
	fwd.GCSteered = true
	// Server -> ToR -> replica server: two hops of software redirection
	// cost, plus the forwarding server's processing.
	delay := serverProcTime + r.net.PathLatency(r.eng.Now(), 2)
	fwd.AddLatency(delay)
	r.toServer(delay, labelClientSWRedirect, rep.server, fwd)
	return true
}

// bounceRead returns a read to the coordination layer after its target
// vSSD began collecting. In RackBlox the packet re-enters the ToR switch,
// whose tables now redirect it; in RackBlox (Software) the server forwards
// it to the replica itself using the controller's hint.
func (r *Rack) bounceRead(inst *instance, st *reqState) {
	pkt := packet.Packet{
		Op:    packet.OpRead,
		SrcIP: inst.server.ip,
		DstIP: inst.server.ip, // Algorithm 1 rewrites this on redirect
		Port:  packet.ReservedPort,
		VSSD:  inst.id,
		LPN:   st.lpn,
		Seq:   st.seq,
	}
	if r.cfg.System == RackBloxSoftware {
		rep := inst.partner
		if inst.replicaIdleHint && !rep.v.InGC(r.eng.Now()) {
			fwd := pkt
			fwd.VSSD = rep.id
			fwd.DstIP = rep.server.ip
			fwd.GCSteered = true
			delay := serverProcTime + r.net.PathLatency(r.eng.Now(), 2)
			r.toServer(delay, labelClientSWRedirect, rep.server, fwd)
			r.res.SWRedirects++
			return
		}
		// No usable replica: serve in place after all.
		r.toServer(serverProcTime, labelClientBounce, inst.server, pkt)
		return
	}
	hop := r.net.HopLatency(r.eng.Now())
	pkt.AddLatency(hop)
	r.toTor(hop, labelClientBounce, r.torOf(inst.server), pkt)
}

// respond sends the completion back to the client through the switch.
func (r *Rack) respond(st *reqState, inst *instance) {
	pkt := packet.Packet{
		Op:    packet.OpResponse,
		SrcIP: inst.server.ip,
		DstIP: r.clientIP,
		Port:  packet.ReservedPort,
		VSSD:  inst.id,
		LPN:   st.lpn,
		Seq:   st.seq,
	}
	hop := r.net.HopLatency(r.eng.Now())
	pkt.AddLatency(hop)
	r.toTor(hop, labelNetRespond, r.torOf(inst.server), pkt)
}

// clientReceive records the completed request. Erasure-coded writes fan
// out to 1+m chunk holders; the logical request completes when the last
// sub-operation's response arrives, so its latency is the fan-out max.
func (r *Rack) clientReceive(pkt packet.Packet) {
	st := r.reqs.get(pkt.Seq)
	if st == nil {
		return
	}
	if st.group != nil {
		st.ecPending--
		if st.ecPending > 0 {
			return
		}
	}
	r.reqs.del(pkt.Seq)
	defer r.retire(st)
	st.vol.inflight--
	now := r.eng.Now()
	if r.pacer != nil && !st.write {
		// The controller's latency sensor sees every completed foreground
		// read, warmup included: it is a live feedback loop, not a
		// measurement artifact.
		r.pacer.observeRead(now - st.issue)
	}
	if st.write {
		r.completedWrites++
	} else {
		r.completedReads++
		if r.metricsWin != nil {
			r.metricsWin.Observe(now - st.issue)
		}
	}
	if st.issue < r.cfg.Warmup {
		return // warmup sample
	}
	r.finishSpan(st, pkt.VSSD, now)
	queue := st.dispatched - st.arrival
	device := st.deviceDone - st.dispatched
	if st.dispatched == 0 || queue < 0 { // cache path or bounced read
		queue, device = 0, st.deviceDone-st.arrival
	}
	r.rec.Add(stats.Sample{
		Total:      now - st.issue,
		NetIn:      st.netIn,
		Queue:      queue,
		Device:     device,
		NetOut:     now - st.deviceDone,
		Write:      st.write,
		Redirected: st.redirected,
	}, now)
}

// finishSpan closes a request's root span with its attribution
// partition. The phases tile [issue, completion] exactly — retransmit
// (earlier timed-out attempts), net_in (client to serving server),
// queue (scheduler wait), device service split into gc_block where a GC
// burst on the serving vSSD overlapped the service window (and renamed
// degraded_read for k-chunk reconstructions), then net_out — so the
// phase durations sum to the end-to-end latency, the invariant tail
// attribution relies on. servedBy is the vSSD that answered.
func (r *Rack) finishSpan(st *reqState, servedBy uint32, now sim.Time) {
	sp := st.span
	if sp == nil {
		return
	}
	sp.Phase("retransmit", st.lastIssue-st.issue)
	sp.Phase("net_in", st.arrival-st.lastIssue)
	queue := st.dispatched - st.arrival
	devStart := st.dispatched
	if st.dispatched == 0 || queue < 0 { // cache path or bounced read
		queue, devStart = 0, st.arrival
	}
	sp.Phase("queue", queue)
	device := st.deviceDone - devStart
	gcBlock := r.tracer.GCOverlap(servedBy, devStart, st.deviceDone)
	if gcBlock > device {
		gcBlock = device
	}
	devName := "device"
	if st.degraded {
		devName = "degraded_read"
	}
	sp.Phase(devName, device-gcBlock)
	sp.Phase("gc_block", gcBlock)
	sp.Phase("net_out", now-st.deviceDone)
	if st.redirected {
		sp.Annotate(trace.String("redirected", "true"))
	}
	sp.Finish(now)
}
