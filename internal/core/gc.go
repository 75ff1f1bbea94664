package core

import (
	"rackblox/internal/packet"
	"rackblox/internal/sim"
	"rackblox/internal/ssd"
)

// startGCMonitors begins the periodic free-block checks of Algorithm 2 for
// every instance. Iteration goes by volume order, not map order, so the
// RNG draws — and therefore the whole simulation — stay deterministic.
func (r *Rack) startGCMonitors() {
	for _, inst := range r.insts {
		// Stagger first checks so instances do not phase-lock.
		offset := sim.Time(r.rng.Int63n(int64(gcCheckInterval) + 1))
		r.eng.ScheduleAfter(offset, labelGCMonitor, inst.monitorEv)
	}
}

// monitorGC is one periodic check (Algorithm 2, trigger_gc).
func (r *Rack) monitorGC(inst *instance) {
	if inst.server.failed {
		return // crashed servers run nothing, including GC monitors
	}
	now := r.eng.Now()
	if now < r.stopIssuing {
		r.eng.ScheduleAfter(gcCheckInterval, labelGCMonitor, inst.monitorEv)
	}
	if inst.v.InGC(now) || inst.gcRequestInFlight {
		return
	}
	ratio := r.freeRatio(inst)
	var gcType packet.GCField
	switch {
	case ratio < GCThreshold:
		gcType = packet.GCRegular
	case ratio < r.cfg.SoftThreshold:
		gcType = packet.GCSoft
	case inst.idle.ShouldBackgroundGC() && ratio < r.cfg.SoftThreshold+2*r.cfg.RestoreDelta:
		// Idle cycles top up the delay budget just above the soft
		// threshold; background GC never digs further than that.
		gcType = packet.GCBackground
	default:
		return
	}

	inst.lastGCType = gcType
	switch r.cfg.System {
	case RackBlox:
		if gcType == packet.GCBackground {
			// Background GC runs without approval; the gc_op only
			// updates the switch state (§3.5.1).
			r.res.BGGCEvents++
			r.startGCBurst(inst, r.restoreTarget(gcType))
			r.notifySwitchGC(inst, packet.GCBackground)
			return
		}
		r.sendGCOp(inst, gcType, 0)
	case RackBloxSoftware:
		if gcType == packet.GCBackground {
			r.res.BGGCEvents++
			r.startGCBurst(inst, r.restoreTarget(gcType))
			r.notifyControllerGC(inst, true)
			return
		}
		r.requestControllerGC(inst, gcType)
	default:
		// VDC and the Coord-I/O ablation garbage-collect uncoordinated,
		// only when they must (below the hard threshold).
		if gcType == packet.GCRegular {
			r.startGCBurst(inst, r.restoreTarget(gcType))
		}
	}
}

// restoreTarget converts the triggering condition into the free ratio a GC
// episode restores: a small hysteresis above the trigger. Background GC
// works further ahead, using idle time to bank free blocks.
func (r *Rack) restoreTarget(gcType packet.GCField) float64 {
	switch gcType {
	case packet.GCRegular:
		return GCThreshold + r.cfg.RestoreDelta
	case packet.GCBackground:
		return r.cfg.SoftThreshold + 2*r.cfg.RestoreDelta
	default:
		return r.cfg.SoftThreshold + r.cfg.RestoreDelta
	}
}

// freeRatio uses the channel-group ratio for software-isolated vSSDs
// (§3.5.2) and the instance's own ratio otherwise.
func (r *Rack) freeRatio(inst *instance) float64 {
	if inst.group != nil {
		inst.group.Rebalance()
		return inst.group.FreeRatio()
	}
	return inst.v.FTL.FreeRatio()
}

// sendGCOp transmits a gc_op to the ToR switch with retransmission
// (3 retries by default; an unacknowledged regular request collects
// anyway, §3.5.1).
func (r *Rack) sendGCOp(inst *instance, gcType packet.GCField, attempt int) {
	inst.gcRequestInFlight = true
	epoch := inst.gcRetries // any reply bumps this; timers compare it
	r.res.GCOpsSent++
	pkt := packet.Packet{
		Op:    packet.OpGC,
		GC:    gcType,
		VSSD:  inst.id,
		SrcIP: inst.server.ip,
		Port:  packet.ReservedPort,
	}
	hop := r.net.HopLatency(r.eng.Now())
	tor := r.torOf(inst.server)
	r.toTor(hop, labelGCOp, tor, pkt)
	t := r.gcTimers.Get()
	t.r, t.inst, t.gcType, t.attempt, t.epoch = r, inst, gcType, attempt, epoch
	r.eng.ScheduleAfter(hop+gcReplyTimeout, labelGCOpTimeout, t)
}

// gcOpTimer is the retransmission timer of one gc_op (sendGCOp); epoch
// is the instance's reply count when it was sent.
type gcOpTimer struct {
	r       *Rack
	inst    *instance
	gcType  packet.GCField
	attempt int
	epoch   int
}

func (t *gcOpTimer) Fire(sim.Time) {
	r, inst, gcType, attempt, epoch := t.r, t.inst, t.gcType, t.attempt, t.epoch
	*t = gcOpTimer{}
	r.gcTimers.Put(t)
	if !inst.gcRequestInFlight || inst.gcRetries != epoch {
		return // reply arrived
	}
	if attempt+1 <= maxGCOpRetries {
		r.res.GCOpRetries++
		r.sendGCOp(inst, gcType, attempt+1)
		return
	}
	// Retries exhausted (link or switch failure).
	inst.gcRequestInFlight = false
	if gcType == packet.GCRegular {
		r.res.ForcedGCs++
		r.startGCBurst(inst, r.restoreTarget(gcType))
	}
}

// notifySwitchGC sends a fire-and-forget gc_op state update.
func (r *Rack) notifySwitchGC(inst *instance, gcType packet.GCField) {
	pkt := packet.Packet{
		Op:    packet.OpGC,
		GC:    gcType,
		VSSD:  inst.id,
		SrcIP: inst.server.ip,
		Port:  packet.ReservedPort,
	}
	hop := r.net.HopLatency(r.eng.Now())
	tor := r.torOf(inst.server)
	r.toTor(hop, labelGCNotify, tor, pkt)
}

// handleGCReply processes the switch's accept/delay answer.
func (r *Rack) handleGCReply(inst *instance, pkt packet.Packet) {
	inst.gcRequestInFlight = false
	inst.gcRetries++ // epoch bump cancels pending retransmission timers
	switch pkt.GC {
	case packet.GCAccept:
		if !inst.v.InGC(r.eng.Now()) {
			r.startGCBurst(inst, r.restoreTarget(inst.lastGCType))
		}
	case packet.GCDelay:
		r.res.GCDelayed++
		// The next periodic check retries; by then the replica has
		// hopefully finished its own collection.
	}
}

// startGCBurst reclaims up to maxGCBlocksPerBurst blocks toward the
// restore target and blocks the involved flash channels for the work's
// duration.
//
// A coordinated soft episode chains bursts in one protected window
// (gcBurstEnd) until the free ratio is back above the soft threshold:
// reads are redirected to the replica throughout, and the reclaimed
// headroom is what keeps the two replicas' GC staggered ("to make room
// for delaying GC", §3.5.1). Every other episode ends after one burst;
// for forced/regular GC — the uncoordinated path VDC always takes — that
// is the minimal capped work needed to keep accepting writes, because
// nothing shields reads from it.
func (r *Rack) startGCBurst(inst *instance, target float64) {
	var burst ssd.BurstResult
	if inst.group != nil {
		burst = inst.group.GroupCollect(target, maxGCBlocksPerBurst)
	} else {
		burst = inst.v.FTL.CollectBurst(target, maxGCBlocksPerBurst)
	}
	if burst.Blocks == 0 {
		r.finishGC(inst)
		return
	}
	r.res.GCEvents++
	var end sim.Time
	for ch, dur := range burst.PerChannel {
		if dur == ssd.Untouched {
			continue
		}
		_, e := inst.server.dev.OccupyChannel(ch, dur)
		if e > end {
			end = e
		}
	}
	inst.v.StartGC(end)
	r.tracer.RecordGC(inst.id, inst.lastGCType.String(), r.eng.Now(), end, burst.Blocks)
	e := r.gcBursts.Get()
	e.r, e.inst, e.target = r, inst, target
	r.eng.Schedule(end, labelGCBurstEnd, e)
}

// gcBurstEnd closes one GC burst (startGCBurst) collecting toward target.
type gcBurstEnd struct {
	r      *Rack
	inst   *instance
	target float64
}

func (e *gcBurstEnd) Fire(sim.Time) {
	r, inst, target := e.r, e.inst, e.target
	*e = gcBurstEnd{}
	r.gcBursts.Put(e)
	// A protected soft episode stays open — switch bit set, reads
	// redirected — until the ratio is restored. Closing and immediately
	// reopening would let reads slip into the gap and stall behind the
	// next chunk's channel reservation.
	if r.cfg.gcCoordinated() && inst.lastGCType == packet.GCSoft &&
		r.freeRatio(inst) < r.cfg.SoftThreshold {
		// Continue the protected episode chunk by chunk. Any read that
		// slipped past the switch before the GC bit was set has already
		// reserved the channel behind the finished chunk, so it drains
		// before the next chunk's reservation: slip exposure is bounded
		// by one chunk, not the whole train.
		inst.server.flushPump(inst)
		inst.server.pump(inst)
		r.startGCBurst(inst, target)
		return
	}
	inst.v.FinishGC()
	r.finishGC(inst)
	inst.server.flushPump(inst)
	inst.server.pump(inst)
}

// finishGC clears coordination state after a burst completes.
func (r *Rack) finishGC(inst *instance) {
	switch r.cfg.System {
	case RackBlox:
		r.notifySwitchGC(inst, packet.GCFinish)
	case RackBloxSoftware:
		r.notifyControllerGC(inst, false)
	}
}

// forceGC is the synchronous out-of-space path: collect immediately and
// tell the coordinator about it after the fact.
func (s *server) forceGC(inst *instance) {
	r := s.rack
	r.res.ForcedGCs++
	if inst.v.InGC(r.eng.Now()) {
		// Burst timing already accounted; reclaim state only so the
		// caller's retry can allocate.
		inst.v.FTL.CollectBurst(GCThreshold, maxGCBlocksPerBurst)
		return
	}
	r.startGCBurst(inst, r.restoreTarget(packet.GCRegular))
	if r.cfg.System == RackBlox {
		r.notifySwitchGC(inst, packet.GCRegular)
	}
}

// The logically centralized VDC controller that RackBlox (Software)
// extends with GC awareness (§4.1) runs on its own server: every
// interaction costs two network hops each way plus processing, scheduled
// directly rather than as packets. Its GC view of each instance is
// instance.ctrlGC, and the peer it consults is instance.partner.

// requestControllerGC asks the controller for permission to collect. The
// reply carries the replica's state so the server can redirect reads
// itself.
func (r *Rack) requestControllerGC(inst *instance, gcType packet.GCField) {
	inst.gcRequestInFlight = true
	trip := r.net.PathLatency(r.eng.Now(), 2) + controllerProc
	m := r.ctrlMsgs.Get()
	m.r, m.inst, m.step, m.gcType = r, inst, ctrlRequest, gcType
	r.eng.ScheduleAfter(trip, labelGCCtrlRequest, m)
}

// notifyControllerGC updates the controller's GC state (start of
// background GC or finish of any GC), fire-and-forget.
func (r *Rack) notifyControllerGC(inst *instance, started bool) {
	trip := r.net.PathLatency(r.eng.Now(), 2) + controllerProc
	m := r.ctrlMsgs.Get()
	m.r, m.inst, m.step, m.started = r, inst, ctrlNotify, started
	r.eng.ScheduleAfter(trip, labelGCCtrlNotify, m)
}

// ctrlStep is the leg of a controller exchange a ctrlMsg is on.
type ctrlStep uint8

const (
	// ctrlRequest is a GC request arriving at the controller.
	ctrlRequest ctrlStep = iota
	// ctrlReply is the controller's answer arriving back at the server;
	// the request's record carries it.
	ctrlReply
	// ctrlNotify is a GC start or finish arriving at the controller.
	ctrlNotify
)

// ctrlMsg is one message between a server and the controller.
type ctrlMsg struct {
	r      *Rack
	inst   *instance
	step   ctrlStep
	gcType packet.GCField
	// grant and replicaBusy are the controller's answer to a request;
	// started is the GC state a notification reports.
	grant, replicaBusy, started bool
}

func (m *ctrlMsg) Fire(sim.Time) {
	r, inst := m.r, m.inst
	if m.step == ctrlRequest {
		m.replicaBusy = inst.partner.ctrlGC
		m.grant = m.gcType != packet.GCSoft || !m.replicaBusy
		if m.grant {
			inst.ctrlGC = true
			// Tell the replica's server its peer is collecting so it stops
			// redirecting toward it (stale by one trip, the software
			// coordination cost).
			inst.partner.replicaIdleHint = false
		} else {
			r.res.DelayedByCtl++
		}
		m.step = ctrlReply
		r.eng.ScheduleAfter(r.net.PathLatency(r.eng.Now(), 2), labelGCCtrlReply, m)
		return
	}
	step, gcType, grant, replicaBusy, started := m.step, m.gcType, m.grant, m.replicaBusy, m.started
	*m = ctrlMsg{}
	r.ctrlMsgs.Put(m)
	if step == ctrlNotify {
		inst.ctrlGC = started
		inst.partner.replicaIdleHint = !started
		return
	}
	inst.gcRequestInFlight = false
	inst.replicaIdleHint = !replicaBusy
	if grant {
		if !inst.v.InGC(r.eng.Now()) {
			r.startGCBurst(inst, r.restoreTarget(gcType))
		}
	} else {
		r.res.GCDelayed++
	}
}
