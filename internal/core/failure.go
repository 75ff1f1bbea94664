package core

import (
	"slices"

	"rackblox/internal/sim"
	"rackblox/internal/switchsim"
	"rackblox/internal/trace"
)

// Failure handling (§3.7 "Others"): RackBlox detects failures with
// heartbeats; on server failure it fails traffic over to the surviving
// replicas and updates the switch tables. This file implements the
// heartbeat detector, the failover transition, and client request
// timeouts so open requests to a dead server do not leak.

// HeartbeatInterval is the simulated server heartbeat period.
const HeartbeatInterval = 10 * sim.Millisecond

// missedHeartbeats is how many silent periods declare a server dead.
const missedHeartbeats = 3

// clientTimeout bounds how long the client waits for a response before
// declaring the request lost (it was in flight to a server that died).
const clientTimeout = 100 * sim.Millisecond

// onServerDetectedDead performs the failover: every vSSD instance on the
// dead server is replaced by its surviving replica in the switch tables,
// and the survivors' replication groups degrade so writes commit alone.
func (r *Rack) onServerDetectedDead(dead *server) {
	if dead.detected {
		return
	}
	dead.detected = true
	r.res.Failovers++
	for _, pr := range r.pairs {
		for _, inst := range pr.insts {
			if inst.server != dead {
				continue
			}
			survivor := inst.partner
			if survivor.server.failed {
				continue // both copies lost; requests to this pair stall
			}
			// The survivor's Hermes node stops waiting for the dead peer.
			survivor.repl.RemovePeer(inst.repl.ID())
			r.installFailover(inst, survivor)
		}
	}
	// Erasure-coded groups: every chunk holder on the dead server fails
	// over to an adopting member (reads reconstruct degraded, writes
	// land on the adopter), the loss is propagated to the sibling ToRs'
	// stripe tables, and the lost chunks are queued for background
	// reconstruction in the switch's GC idle windows. A holder that had
	// healed from an earlier crash (repeated fail/heal cycles) loses its
	// restored chunks again and re-enters the same pipeline.
	for _, g := range r.groups {
		for i, inst := range g.insts {
			if inst.server != dead {
				continue
			}
			adopter := g.adopter(i)
			if adopter == nil {
				continue // whole group lost
			}
			r.installFailover(inst, adopter)
			r.propagateMemberDead(g, inst)
			g.crashed[i] = true
			if g.replacement[i] == inst {
				// The holder had been restored onto this very server; its
				// rebuilt chunks are gone with it.
				g.replacement[i] = nil
			}
			r.enqueueHolderRepair(g, i, adopter)
		}
		// The dead server may also hold re-integrated replacement chunks
		// adopted for other holders: those rebuilt chunks are gone with
		// it, so the holders degrade again and their repair restarts onto
		// a fresh adopter.
		for i := range g.insts {
			repl := g.replacement[i]
			if repl == nil || repl.server != dead || repl == g.insts[i] {
				continue
			}
			g.replacement[i] = nil
			adopter := g.adopter(i)
			if adopter == nil {
				continue
			}
			r.enqueueHolderRepair(g, i, adopter)
		}
	}
}

// enqueueHolderRepair (re)queues the full reconstruction of one lost
// holder onto the given adopter, discarding any progress a previous
// repair generation had made (the chunks it rebuilt are lost or stale),
// and arms the repair pump. The holder stays marked repairing until
// reintegrate registers the rebuilt chunks.
func (r *Rack) enqueueHolderRepair(g *ecGroup, holder int, adopter *instance) {
	g.adopterFor[holder] = adopter
	g.repairing[holder] = true
	g.recon.Reset(holder)
	g.recon.EnqueueChunk(holder, g.usedStripes, repairBatchStripes)
	r.scheduleRepair(g)
}

// installFailover rewrites a dead instance's traffic to its survivor in
// the switch tables (control-plane update). The entry lands on the dead
// member's own ToR and — when the survivor lives under a different, live
// ToR — on the survivor's too, so rerouted client traffic entering there
// resolves as well.
func (r *Rack) installFailover(deadInst, survivor *instance) {
	tors := []*switchsim.Switch{r.torOf(deadInst.server)}
	if alt := r.torOf(survivor.server); alt != tors[0] {
		tors = append(tors, alt)
	}
	r.installFailoverOn(tors, deadInst, survivor)
}

// installFailoverOn delivers the RegisterDest+Failover control-plane
// update to each listed ToR: one edge hop, plus the spine crossing for
// ToRs in other racks than the dead member's — the same distance every
// other cross-rack control message pays. ToRs that are down when the
// update arrives miss it, like any packet to a dark switch.
func (r *Rack) installFailoverOn(tors []*switchsim.Switch, deadInst, survivor *instance) {
	hop := r.net.HopLatency(r.eng.Now())
	deadID, survivorID := deadInst.id, survivor.id
	survivorIP := survivor.server.ip
	for _, tor := range tors {
		tor := tor
		delay := hop + r.spine.Latency(deadInst.server.rackIdx, tor.RackID())
		r.eng.ScheduleAfter(delay, labelFailoverInstall, sim.EventFunc(func(sim.Time) {
			if tor.Down() {
				return
			}
			tor.RegisterDest(survivorID, survivorIP)
			tor.Failover(deadID, survivorID)
		}))
	}
	// The controller stops counting the dead instance as collecting.
	deadInst.ctrlGC = false
}

// propagateMemberDead tells every other ToR holding the group's stripe
// that a member is gone (inter-switch control plane), so their handoffs
// steer around it.
func (r *Rack) propagateMemberDead(g *ecGroup, deadInst *instance) {
	home := r.torOf(deadInst.server)
	hop := r.net.HopLatency(r.eng.Now()) + r.spine.Propagation()
	deadID := deadInst.id
	for _, tor := range g.tors {
		if tor == home {
			continue
		}
		r.eng.ScheduleAfter(hop, labelFailoverMemberDead, sim.EventFunc(func(sim.Time) { tor.MarkRemoteDead(deadID) }))
	}
}

// onToRDetectedDead reacts to a ToR (whole-switch) failure: the rack's
// servers are alive but dark, so surviving ToRs must both stop handing
// stripe reads toward the isolated members and rewrite writes to
// adopting members. Unlike a rack crash no data is lost — nothing is
// queued for reconstruction, reads are served degraded until the ToR
// returns.
func (r *Rack) onToRDetectedDead(rackIdx int) {
	// A ToR revived before the heartbeat detector fired was a transient
	// blip: installing failovers for a healthy rack would steer reads
	// away from reachable members forever.
	if r.torDetected[rackIdx] || !r.tors[rackIdx].Down() {
		return
	}
	r.torDetected[rackIdx] = true
	r.res.Failovers++
	for _, pr := range r.pairs {
		for _, inst := range pr.insts {
			if inst.server.rackIdx != rackIdx {
				continue
			}
			survivor := inst.partner
			if !survivor.server.reachable() {
				continue
			}
			survivor.repl.RemovePeer(inst.repl.ID())
			r.installFailover(inst, survivor)
		}
	}
	for _, g := range r.groups {
		for i, inst := range g.insts {
			if inst.server.rackIdx != rackIdx {
				continue
			}
			adopter := g.adopter(i)
			if adopter == nil {
				continue
			}
			// Every ToR serving the group gets the failover entry, so
			// client traffic entering through any surviving rack
			// resolves the rewrite.
			r.installFailoverOn(g.tors, inst, adopter)
			r.propagateMemberDead(g, inst)
		}
	}
}

// replayToR rebuilds a revived ToR's blank tables from surviving
// cluster state and clears the stale marks sibling ToRs hold for the
// revived rack (the control-plane half of Rack.ReviveToR). The
// replay is modeled as instantaneous: the controller streams the table
// image before re-enabling the data plane.
func (r *Rack) replayToR(rackIdx int) {
	tor := r.tors[rackIdx]

	// Re-register every instance homed in the revived rack, mirroring
	// the rows the original create_vssd installed: pairs point at their
	// Hermes peer, group members at their same-rack neighbor (the hint
	// buildGroups registers so non-stripe paths never leak remote IPs
	// into the wrong destination table).
	for _, pr := range r.pairs {
		for _, inst := range pr.insts {
			if inst.server.rackIdx != rackIdx {
				continue
			}
			tor.InstallVSSD(inst.id, inst.server.ip, inst.partner.id, inst.partner.server.ip)
		}
	}
	for _, g := range r.groups {
		for i, inst := range g.insts {
			if inst.server.rackIdx != rackIdx {
				continue
			}
			next := g.sameRackNeighbor(i)
			tor.InstallVSSD(inst.id, inst.server.ip, next.id, next.server.ip)
		}
	}

	// Replay the per-rack stripe tables of every group touching this
	// rack, then overlay the failure-era state that survives revival:
	// repaired holders point at their replacements, and members that
	// cannot be read (still dead, or revived blank with a catch-up
	// repair outstanding) get failover entries when local and
	// remote-dead marks when remote.
	for _, g := range r.groups {
		if !slices.Contains(g.tors, tor) {
			continue
		}
		ids, racks := g.memberTable()
		tor.RegisterStripeMembers(ids, racks)
		for i, m := range g.insts {
			if repl := g.replacement[i]; repl != nil {
				tor.RegisterDest(repl.id, repl.server.ip)
				tor.ReplaceStripeMember(m.id, repl.id)
				continue
			}
			if m.server.reachable() && !g.repairing[i] {
				continue
			}
			if m.server.rackIdx == rackIdx {
				if adopter := g.adopter(i); adopter != nil {
					tor.RegisterDest(adopter.id, adopter.server.ip)
					tor.Failover(m.id, adopter.id)
				}
			} else {
				tor.MarkRemoteDead(m.id)
			}
		}
	}

	// Replicated pairs: a locally-homed member whose server crashed (not
	// merely darkened) keeps routing to its survivor.
	for _, pr := range r.pairs {
		for _, inst := range pr.insts {
			if inst.server.rackIdx != rackIdx || inst.server.reachable() {
				continue
			}
			if surv := inst.partner; surv.server.reachable() {
				tor.RegisterDest(surv.id, surv.server.ip)
				tor.Failover(inst.id, surv.id)
			}
		}
	}

	// Sibling ToRs: the revived rack's members are reachable again, so
	// the remote-dead marks and failover rewrites installed while it was
	// dark are stale — without this they would outlive the outage and
	// keep steering reads away from healthy holders forever.
	for j, sib := range r.tors {
		if j == rackIdx || sib.Down() {
			continue
		}
		for _, inst := range r.insts {
			if inst.server.rackIdx != rackIdx || !inst.server.reachable() {
				continue
			}
			sib.ClearRemoteDead(inst.id)
			sib.FailoverCleared(inst.id)
		}
	}
}

// onServerRevived re-integrates a server that returned from a detected
// crash. The box comes back blank, so the two redundancy backends heal
// differently: replicated instances re-pair with their survivors —
// Hermes AddPeer restores the write quorum, the revived node rejoins
// with an empty key table, and the failover rewrites are withdrawn on
// every ToR — while erasure-coded holders catch up through the metered
// reconstructor, which rebuilds their full chunk set from the stripe
// survivors before re-registering them under their original ids
// (switchsim.RestoreStripeMember, via the usual reintegrate path).
func (r *Rack) onServerRevived(srv *server) {
	for _, pr := range r.pairs {
		for _, inst := range pr.insts {
			if inst.server != srv {
				continue
			}
			inst.repl.Rejoin()
			peer := inst.partner
			if peer.server.reachable() {
				// Re-pair: the survivor invalidates the returned replica
				// again on future writes, and traffic addressed to the
				// revived member stops being rewritten to the survivor.
				peer.repl.AddPeer(inst.repl.ID())
				inst.repl.AddPeer(peer.repl.ID())
				r.clearPairFailover(inst)
			} else {
				// The partner is still down: the revived member serves
				// the pair alone, absorbing the traffic that was rewritten
				// toward the (now dead) partner.
				inst.repl.RemovePeer(peer.repl.ID())
				r.clearPairFailover(inst)
				r.installFailover(peer, inst)
			}
		}
	}
	for _, g := range r.groups {
		for i, inst := range g.insts {
			if inst.server != srv || !g.crashed[i] {
				continue
			}
			// Catch-up repair: the returning holder is blank, so its full
			// chunk set is rebuilt onto it from scratch — whatever a
			// previous adopter had absorbed is superseded.
			r.enqueueHolderRepair(g, i, inst)
		}
	}
}

// clearPairFailover withdraws a revived pair member's failover rewrite
// on every live ToR (control-plane update: one edge hop, plus the spine
// crossing for other racks), so its traffic is served directly again.
func (r *Rack) clearPairFailover(inst *instance) {
	hop := r.net.HopLatency(r.eng.Now())
	id := inst.id
	for j, tor := range r.tors {
		tor := tor
		delay := hop + r.spine.Latency(inst.server.rackIdx, j)
		r.eng.ScheduleAfter(delay, labelFailoverClear, sim.EventFunc(func(sim.Time) {
			if tor.Down() {
				return
			}
			tor.FailoverCleared(id)
		}))
	}
}

// watchTimeout arms the client-side loss detector for one request.
// Erasure-coded requests are retransmitted under a fresh sequence number
// (stale responses find no state and are dropped): sub-operations in
// flight to a server that crashed before the heartbeat detector
// installed failover routes are swallowed, but by the retry the switch
// steers around the dead holder, so every read eventually completes via
// degraded reconstruction.
func (r *Rack) watchTimeout(seq uint64) {
	if !r.anyFailure {
		return // no failure in the timeline; avoid per-request timer overhead
	}
	t := r.timers.Get()
	t.r, t.seq = r, seq
	r.eng.ScheduleAfter(clientTimeout, labelClientTimeout, t)
}

// requestTimedOut fires a request's loss detector: a request still in
// flight is retransmitted (erasure coding) or counted lost.
func (r *Rack) requestTimedOut(seq uint64) {
	st := r.reqs.get(seq)
	if st == nil {
		return // completed
	}
	r.reqs.del(seq)
	if st.group != nil && st.retries < maxECRetries {
		st.retries++
		r.res.ECRetransmits++
		r.seq++
		st.seq = r.seq
		st.ecPending = 0
		st.arrival, st.dispatched, st.deviceDone = 0, 0, 0
		st.bounced, st.redirected, st.gcSteered = false, false, false
		// The new attempt re-anchors the span's phase partition: time up
		// to here becomes the retransmit phase.
		st.lastIssue = r.eng.Now()
		st.span.Annotate(trace.Int("retry", int64(st.retries)))
		r.reqs.put(st)
		r.watchTimeout(st.seq)
		r.sendEC(st)
		return
	}
	st.vol.inflight--
	r.res.LostRequests++
	if !st.write {
		r.res.LostReads++
	}
	r.retire(st)
}
