package core

import (
	"rackblox/internal/packet"
	"rackblox/internal/replication"
	"rackblox/internal/sched"
	"rackblox/internal/sim"
	"rackblox/internal/switchsim"
)

// The datapath schedules pooled event records instead of closures, so a
// request crosses client, ToR, server and Hermes without a heap
// allocation once the pools have grown to the number of requests in
// flight. Each record copies out its fields and returns itself to its
// pool before acting, so the handler it runs may reuse it at once.
// Records never hold a *reqState across an event: they carry the
// request's seq and re-resolve it through Rack.reqs when they fire, and
// since seq is never reused, a recycled reqState cannot be mistaken for
// the request a record was scheduled for.

// hopTarget says where a packet in flight lands.
type hopTarget uint8

const (
	// hopTor enters a ToR's pipeline.
	hopTor hopTarget = iota
	// hopServer arrives at a server's NIC directly (server-side
	// forwarding in RackBlox (Software)).
	hopServer
	// hopDeliver leaves a ToR toward pkt.DstIP: the client or a server.
	hopDeliver
)

// hop is one packet in flight on a rack link.
type hop struct {
	r   *Rack
	to  hopTarget
	pkt packet.Packet
	// tor is the switch a hopTor packet enters.
	tor *switchsim.Switch
	// srv is the server a hopServer packet reaches, or the destination
	// server a hopDeliver packet was resolved to (nil for the client).
	srv *server
	// torRack is the rack whose ToR a hopDeliver packet left.
	torRack int
}

// sendHop schedules pkt to land at the given target after delay.
func (r *Rack) sendHop(delay sim.Time, l sim.Label, to hopTarget, pkt packet.Packet,
	tor *switchsim.Switch, srv *server, torRack int) {
	h := r.hops.Get()
	h.r, h.to, h.pkt, h.tor, h.srv, h.torRack = r, to, pkt, tor, srv, torRack
	r.eng.ScheduleAfter(delay, l, h)
}

// toTor schedules pkt to enter tor's pipeline after delay.
func (r *Rack) toTor(delay sim.Time, l sim.Label, tor *switchsim.Switch, pkt packet.Packet) {
	r.sendHop(delay, l, hopTor, pkt, tor, nil, 0)
}

// toServer schedules pkt to reach srv's NIC after delay.
func (r *Rack) toServer(delay sim.Time, l sim.Label, srv *server, pkt packet.Packet) {
	r.sendHop(delay, l, hopServer, pkt, nil, srv, 0)
}

func (h *hop) Fire(sim.Time) {
	r, to, pkt, tor, srv, torRack := h.r, h.to, h.pkt, h.tor, h.srv, h.torRack
	*h = hop{}
	r.hops.Put(h)
	switch to {
	case hopTor:
		tor.Process(pkt)
	case hopServer:
		srv.receive(pkt)
	case hopDeliver:
		r.arrive(torRack, srv, pkt)
	}
}

// opStep is the step of a server's request handling a serverOp resumes.
type opStep uint8

const (
	// stepRetryRead retries a read that found its key invalidated.
	stepRetryRead opStep = iota
	// stepIssueRead issues a read the token bucket admitted.
	stepIssueRead
	// stepCompleteRead completes a read served from DRAM or flash.
	stepCompleteRead
	// stepCacheInserted replicates a write that reached the DRAM cache.
	stepCacheInserted
	// stepFlushed finishes one background flush program.
	stepFlushed
)

// serverOp is a step of a server's request handling that completes
// later. A write's op outlives its cache-insert event: it rides Hermes as
// the write's commit callback and is returned to the pool when the write
// commits.
type serverOp struct {
	s       *server
	inst    *instance
	req     *sched.Request
	seq     uint64
	lpn     uint32
	attempt int
	step    opStep
	// commit is the op's committed method, bound once when the op is
	// first allocated, so handing it to Hermes allocates nothing.
	commit func()
}

// newOp takes a server op off the rack's pool.
func (s *server) newOp(step opStep, inst *instance, req *sched.Request) *serverOp {
	op := s.rack.ops.Get()
	if op.commit == nil {
		op.commit = op.committed
	}
	op.s, op.inst, op.req, op.step = s, inst, req, step
	return op
}

// release returns op to the pool, keeping its bound commit callback.
func (op *serverOp) release() {
	r := op.s.rack
	*op = serverOp{commit: op.commit}
	r.ops.Put(op)
}

func (op *serverOp) Fire(sim.Time) {
	s, inst, req, attempt := op.s, op.inst, op.req, op.attempt
	switch op.step {
	case stepIssueRead:
		// The same op completes the read once the channel finishes.
		op.step = stepCompleteRead
		s.issueRead(inst, op)
		return
	case stepCacheInserted:
		s.cacheInserted(op)
		return
	}
	step := op.step
	op.release()
	switch step {
	case stepRetryRead:
		s.startRead(inst, req, attempt)
	case stepCompleteRead:
		s.completeRead(inst, req)
	case stepFlushed:
		inst.flushInflight--
		inst.cache.FlushDone()
		s.drainStalled(inst)
		s.flushPump(inst)
	}
}

// committed is the Hermes commit callback of the write op carries.
func (op *serverOp) committed() {
	s, inst, seq := op.s, op.inst, op.seq
	op.release()
	r := s.rack
	st := r.reqs.get(seq)
	if st == nil {
		s.flushPump(inst)
		s.pump(inst)
		return // attempt superseded by a client retransmission
	}
	st.deviceDone = r.eng.Now()
	r.respond(st, inst)
	s.flushPump(inst)
	s.pump(inst)
}

// hermesMsg is one replication message crossing the network between the
// two servers of a pair.
type hermesMsg struct {
	dst *instance
	msg replication.Message
}

func (m *hermesMsg) Fire(sim.Time) {
	dst, msg := m.dst, m.msg
	r := dst.server.rack
	*m = hermesMsg{}
	r.msgs.Put(m)
	if !dst.server.reachable() {
		return // messages to a crashed or isolated server are lost
	}
	if msg.Type == replication.MsgInv {
		// The invalidation carries the write: the follower caches it for
		// background flush.
		dst.server.applyReplicaWrite(dst, msg.LPN)
	}
	dst.repl.Handle(msg)
}

// lossTimer is one request's client-side loss detector (watchTimeout).
type lossTimer struct {
	r   *Rack
	seq uint64
}

func (t *lossTimer) Fire(sim.Time) {
	r, seq := t.r, t.seq
	*t = lossTimer{}
	r.timers.Put(t)
	r.requestTimedOut(seq)
}

// retire returns a finished request's state to the pool. The caller has
// already removed it from r.reqs.
func (r *Rack) retire(st *reqState) {
	*st = reqState{}
	r.states.Put(st)
}

// retireRequest returns a scheduler request whose handling has ended —
// completed, cancelled, or bounced back to the ToR — to the pool.
func (r *Rack) retireRequest(req *sched.Request) {
	*req = sched.Request{}
	r.requests.Put(req)
}
