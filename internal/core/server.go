package core

import (
	"rackblox/internal/flash"
	"rackblox/internal/packet"
	"rackblox/internal/sched"
	"rackblox/internal/sim"
	"rackblox/internal/ssd"
)

// server is one storage server: a programmable SSD, the SDF stack with its
// per-vSSD I/O queues, a DRAM write cache with a background flusher, and
// the periodic GC monitor of Algorithm 2.
type server struct {
	rack *Rack
	// index is the global server index; rackIdx the fault domain it
	// lives in (index / Config.StorageServers).
	index   int
	rackIdx int
	ip      uint32
	dev     *ssd.Device
	insts   map[uint32]*instance

	// failed marks a crashed server (drops all traffic); detected flips
	// when the heartbeat monitor notices. crashes counts the server's
	// crash events so a detection timer armed by one crash cannot fire
	// for a later one (fail -> revive -> fail-again inside the
	// detection window would otherwise be detected early).
	failed   bool
	detected bool
	crashes  int
}

// receive handles a packet delivered to this server's NIC.
func (s *server) receive(pkt packet.Packet) {
	if s.failed {
		return // crashed servers drop everything
	}
	now := s.rack.eng.Now()
	inst, ok := s.insts[pkt.VSSD]
	if !ok {
		return // stale packet for a deleted vSSD
	}
	switch pkt.Op {
	case packet.OpRead, packet.OpWrite:
		st := s.rack.reqs.get(pkt.Seq)
		if st == nil {
			return
		}
		// Erasure-coded fan-out sub-operations share one reqState: only
		// the first arrival sets the breakdown anchors, so the recorded
		// stages stay monotonic (arrival <= dispatch <= max deviceDone)
		// and describe the fan-out envelope rather than mixing stages of
		// different sub-operations.
		if st.group == nil || st.arrival == 0 {
			st.arrival = now
			st.netIn = now - st.issue
		}
		s.rack.perRackReqs[s.rackIdx]++
		if st.pair != nil && pkt.VSSD != st.pair.primary.id {
			st.redirected = true
		}
		// Feed the predictor with the INT-measured inbound latency and
		// track idleness for background GC.
		inst.pred.Observe(pkt.Op == packet.OpWrite, sim.Time(pkt.LatencyNS()))
		inst.idle.OnRequest(now)

		req := s.rack.requests.Get()
		req.Seq, req.Write, req.Arrival, req.Data = pkt.Seq, pkt.Op == packet.OpWrite, now, inst
		if s.rack.cfg.coordinated() {
			req.NetTime = sim.Time(pkt.LatencyNS())
			req.Predict = inst.pred.Predict(req.Write)
		}
		inst.queue.Enqueue(req)
		s.rack.eng.ScheduleAfter(serverProcTime, labelServerPump, inst.pumpEv)
	case packet.OpGC:
		// Reply from the ToR switch to an earlier gc_op.
		s.rack.handleGCReply(inst, pkt)
	}
}

// pump dispatches queued requests. The inflight budget applies to reads
// only: they occupy flash channels. Writes land in DRAM and are bounded by
// the cache, the stall list, and Kyber's write tokens, so a GC-blocked
// read never starves them — the cache-shielding the paper relies on. One
// read may be stashed in pendingRead when the budget is exhausted, letting
// writes continue past it without reordering reads.
func (s *server) pump(inst *instance) {
	now := s.rack.eng.Now()
	for {
		if inst.pendingRead != nil {
			if inst.inflight >= inst.maxInflight {
				return
			}
			req := inst.pendingRead
			inst.pendingRead = nil
			inst.inflight++
			s.startRead(inst, req, 0)
			continue
		}
		req := inst.queue.Dequeue(now)
		if req == nil {
			return
		}
		if req.Write {
			if inst.cache.Full() {
				if len(inst.stalled) < 8 {
					// Hold the write until flushing frees DRAM.
					inst.stalled = append(inst.stalled, req)
					continue
				}
				// Stall list saturated: put the request back and stop
				// pumping writes. Kyber counted the dequeue as an
				// in-flight write; a zero-cost completion rebalances it.
				inst.queue.Enqueue(req)
				inst.queue.OnComplete(true, 0)
				return
			}
			s.startWrite(inst, req)
			continue
		}
		if inst.inflight >= inst.maxInflight {
			inst.pendingRead = req
			return
		}
		inst.inflight++
		s.startRead(inst, req, 0)
	}
}

// drainStalled restarts writes that were waiting for DRAM slots.
func (s *server) drainStalled(inst *instance) {
	for len(inst.stalled) > 0 && !inst.cache.Full() {
		req := inst.stalled[0]
		inst.stalled = inst.stalled[1:]
		s.startWrite(inst, req)
	}
}

// cancelRead releases a read whose request state is gone (the client
// timed it out, and for erasure coding retransmitted it under a fresh
// sequence number): the scheduler token and inflight slot return, and
// no response is sent for the dead attempt.
func (s *server) cancelRead(inst *instance, req *sched.Request) {
	s.rack.retireRequest(req)
	inst.queue.OnComplete(false, 0)
	inst.inflight--
	s.pump(inst)
}

// startRead serves one read: DRAM hit, or flash read on the owning
// channel. attempt counts Hermes-invalidation retries.
func (s *server) startRead(inst *instance, req *sched.Request, attempt int) {
	r := s.rack
	now := r.eng.Now()
	st := r.reqs.get(req.Seq)
	if st == nil {
		s.cancelRead(inst, req)
		return
	}
	if st.dispatched == 0 {
		st.dispatched = now
	}
	lpn := st.lpn

	// An erasure-coded read landing away from its home chunk holder was
	// steered here by the switch (home collecting or failed): this
	// holder coordinates the degraded reconstruction from k chunks —
	// unless it is the home's re-integrated replacement, in which case
	// the rebuilt chunk lives here and the read is served directly.
	if st.group != nil && inst.id != st.homeID && !st.group.servesDirect(inst, st.homeID) {
		s.startDegradedRead(inst, req)
		return
	}

	// The switch marks a collecting vSSD before replying to its gc_op,
	// but reads already forwarded race that update. Rather than queue
	// such a read behind a multi-millisecond GC reservation, hand it back
	// to the ToR: Algorithm 1 redirects it to the idle replica ("early
	// redirection to data replicas", §2.3). One bounce only — if both
	// replicas collect, the read is served in place.
	if !st.bounced && inst.v.InGC(now) && r.cfg.gcCoordinated() {
		st.bounced = true
		st.dispatched = 0 // queue accounting restarts at the new server
		inst.inflight--
		r.bounces++
		r.bounceRead(inst, st)
		r.retireRequest(req)
		s.pump(inst)
		return
	}

	// A redirected read may land on a replica whose copy is still
	// invalidated by an in-flight write; wait briefly for the commit.
	// Erasure-coded chunk holders (no Hermes node) always serve.
	if inst.repl != nil && !inst.repl.CanRead(lpn) && attempt < 3 {
		r.staleRetries++
		op := s.newOp(stepRetryRead, inst, req)
		op.attempt = attempt + 1
		r.eng.ScheduleAfter(hermesRetryGap, labelServerStaleRetry, op)
		return
	}

	if inst.cache.Contains(lpn) {
		r.cacheHits++
		r.eng.ScheduleAfter(cacheHitTime, labelServerCacheHit, s.newOp(stepCompleteRead, inst, req))
		return
	}
	// Software-isolated vSSDs pass the token-bucket limiter first.
	admitAt := inst.v.Admit(now)
	op := s.newOp(stepIssueRead, inst, req)
	op.lpn = lpn
	if admitAt > now {
		r.eng.Schedule(admitAt, labelServerAdmit, op)
		return
	}
	op.step = stepCompleteRead
	s.issueRead(inst, op)
}

// issueRead reads op's page on the owning flash channel; op completes the
// read when the channel is done.
func (s *server) issueRead(inst *instance, op *serverOp) {
	addr, err := inst.v.FTL.Read(int(op.lpn))
	if err != nil {
		// Reads outside the preconditioned range still cost one device
		// read on the vSSD's first channel.
		addr = flash.Addr{Channel: inst.v.Channels()[0]}
	}
	s.dev.TimeRead(addr, op)
}

func (s *server) completeRead(inst *instance, req *sched.Request) {
	r := s.rack
	now := r.eng.Now()
	st := r.reqs.get(req.Seq)
	if st == nil {
		// Timed out and (for EC) retransmitted while the device worked;
		// the flash time was spent, but nobody is waiting for the reply.
		s.cancelRead(inst, req)
		return
	}
	st.deviceDone = now
	// Coordinated schedulers target end-to-end latency, so feed them the
	// network components too — that is why their targets are raised by
	// the expected network delay (§4.1).
	lat := now - req.Arrival
	if r.cfg.coordinated() {
		lat += req.NetTime + req.Predict
	}
	r.retireRequest(req)
	inst.queue.OnComplete(false, lat)
	inst.inflight--
	r.respond(st, inst)
	s.pump(inst)
}

// startWrite inserts the write into the DRAM cache and replicates it with
// Hermes; the write completes when all replicas acknowledged (§3.5.1).
func (s *server) startWrite(inst *instance, req *sched.Request) {
	r := s.rack
	now := r.eng.Now()
	st := r.reqs.get(req.Seq)
	if st == nil {
		// Timed out (and for EC retransmitted) before dispatch: return
		// the scheduler token and drop the dead attempt.
		inst.queue.OnComplete(true, 0)
		r.retireRequest(req)
		return
	}
	if st.dispatched == 0 {
		st.dispatched = now
	}
	inst.cache.Insert(st.lpn)
	// The write now owns a DRAM slot: its scheduler token returns
	// immediately. Kyber's write depth gates admission into the storage
	// stack, not the replication round trip, which is network time.
	inst.queue.OnComplete(true, 0)
	// seq pins this attempt: an EC retransmission reissues the logical
	// request under a fresh sequence number, so a stale attempt's
	// completion must not respond against the new one.
	op := s.newOp(stepCacheInserted, inst, nil)
	op.seq = req.Seq
	r.retireRequest(req)
	r.eng.ScheduleAfter(cacheInsertTime, labelServerCacheInsert, op)
	s.flushPump(inst)
}

// cacheInserted continues a write once it sits in DRAM: a replicated
// write starts its Hermes round, with op as the commit callback; an
// erasure-coded chunk write commits locally.
func (s *server) cacheInserted(op *serverOp) {
	r := s.rack
	inst := op.inst
	st := r.reqs.get(op.seq)
	if st != nil && inst.repl != nil {
		inst.repl.Write(st.lpn, op.commit)
		return
	}
	op.release()
	if st == nil {
		s.flushPump(inst)
		s.pump(inst)
		return // attempt superseded by a client retransmission
	}
	// Erasure-coded chunk holder: durability comes from the stripe's
	// parity chunks (the client fans the write out to all of them), so
	// each sub-write commits locally.
	if done := r.eng.Now(); done > st.deviceDone {
		st.deviceDone = done
	}
	r.respond(st, inst)
	s.flushPump(inst)
	s.pump(inst)
}

// applyReplicaWrite caches a write arriving via Hermes invalidation at the
// follower. Followers absorb without back-pressure; their flusher catches
// up in the background.
func (s *server) applyReplicaWrite(inst *instance, lpn uint32) {
	// Replicated writes keep the device busy: without this the idle
	// predictor believes a read-free replica is idle and fires
	// background GC under full write load.
	inst.idle.OnRequest(s.rack.eng.Now())
	if !inst.cache.Insert(lpn) {
		// Follower DRAM full: write through to flash immediately.
		if _, err := inst.v.FTL.Write(int(lpn)); err != nil {
			s.forceGC(inst)
			inst.v.FTL.Write(int(lpn)) // after GC this must succeed
		}
		return
	}
	s.flushPump(inst)
}

// flushPump drains one instance's DRAM cache to flash in the background,
// bounded to one in-flight program per channel the instance owns. Flushing
// is strictly per-instance so one vSSD's GC train cannot occupy another
// vSSD's flush slots (head-of-line blocking across tenants).
func (s *server) flushPump(inst *instance) {
	if inst.maxFlushInflight == 0 {
		inst.maxFlushInflight = len(inst.v.Channels())
	}
	// Write-back watermark: dirty pages below the hold level stay in DRAM
	// absorbing rewrites (hot keys never reach flash), which is what
	// keeps GC traffic proportional to the *unique* write footprint.
	for inst.flushInflight < inst.maxFlushInflight && inst.cache.Len() > cacheHoldPages {
		lpn, ok := inst.cache.NextFlush()
		if !ok {
			return
		}
		addr, err := inst.v.FTL.Write(int(lpn))
		if err != nil {
			// Out of space: garbage-collect now (the never-denied regular
			// GC path) and retry once.
			s.forceGC(inst)
			addr, err = inst.v.FTL.Write(int(lpn))
			if err != nil {
				inst.cache.FlushDone()
				continue
			}
		}
		inst.flushInflight++
		s.dev.TimeProgram(addr, s.newOp(stepFlushed, inst, nil))
	}
}
