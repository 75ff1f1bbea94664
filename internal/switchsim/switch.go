// Package switchsim simulates the RackBlox ToR switch data plane: the
// replica and destination tables of §3.3, the packet-processing workflow
// of Algorithm 1 (read redirection, GC accept/delay, recirculation), INT
// per-hop latency accounting, and the egress scheduling policies of §4.5.2
// (token bucket, fair queuing, priority).
package switchsim

import (
	"fmt"

	"rackblox/internal/packet"
	"rackblox/internal/sim"
)

// replicaEntry is one row of the replica table (Fig. 5a): the GC status of
// a vSSD and the id of its in-rack replica.
type replicaEntry struct {
	gc      bool
	replica uint32
}

// destEntry is one row of the destination table (Fig. 5b): the GC status
// of a vSSD and the IP of the server hosting it.
type destEntry struct {
	gc bool
	ip uint32
}

// Forwarder delivers a packet leaving the switch toward pkt.DstIP. The
// rack composition supplies it and charges the ToR->host hop latency.
type Forwarder func(pkt packet.Packet)

// Handoff carries a packet to another rack's ToR switch over the cluster
// spine (multi-rack stripe routing); the cluster composition supplies it
// and charges the cross-rack latency.
type Handoff func(pkt packet.Packet, rack int)

// maxHandoffs bounds how many ToR-to-ToR hops one packet may take.
const maxHandoffs = 2

// Stats counts data-plane events for the evaluation.
type Stats struct {
	Forwarded      int64
	Redirected     int64
	FailedOver     int64
	GCAccepted     int64
	GCDelayed      int64
	GCFinished     int64
	Recirculations int64
	Dropped        int64
	// DegradedRedirects counts reads routed away from a collecting or
	// failed erasure-coded chunk holder to a surviving group member.
	DegradedRedirects int64
	// Handoffs counts reads passed to another rack's ToR because no local
	// stripe member could serve them (multi-rack degraded routing).
	Handoffs int64
	// Reintegrated counts packets rewritten to a repaired holder's
	// replacement (ReplaceStripeMember) and served directly — traffic
	// that before re-integration would have paid the degraded path.
	Reintegrated int64
}

// Add accumulates another switch's counters (cluster-wide totals).
func (s *Stats) Add(o Stats) {
	s.Forwarded += o.Forwarded
	s.Redirected += o.Redirected
	s.FailedOver += o.FailedOver
	s.GCAccepted += o.GCAccepted
	s.GCDelayed += o.GCDelayed
	s.GCFinished += o.GCFinished
	s.Recirculations += o.Recirculations
	s.Dropped += o.Dropped
	s.DegradedRedirects += o.DegradedRedirects
	s.Handoffs += o.Handoffs
	s.Reintegrated += o.Reintegrated
}

const (
	// pipelineLatency is the per-packet match-action latency (Tofino-class
	// switches process in under a microsecond).
	pipelineLatency = 800 * sim.Nanosecond
	// recirculateLatency is the extra pipeline pass taken by soft gc_op
	// packets, which must read the replica's state and update their own.
	recirculateLatency = 800 * sim.Nanosecond
)

// Switch is the programmable ToR switch.
type Switch struct {
	eng     *sim.Engine
	replica map[uint32]*replicaEntry
	dest    map[uint32]*destEntry
	// failover maps a dead vSSD id to its surviving replica: reads AND
	// writes are rewritten until the instance is re-replicated (§3.7).
	failover map[uint32]uint32
	// stripe maps an erasure-coded chunk holder to its full stripe group
	// (k data + m parity holders, in group order). Reads for a collecting
	// or failed member are routed to a surviving member, which coordinates
	// the degraded reconstruction itself.
	stripe map[uint32][]uint32
	// Multi-rack state: this ToR's rack id, the rack of every stripe
	// member it knows about (its per-rack stripe table), members of other
	// racks reported dead by the control plane, and the handoff path to
	// sibling ToRs. A member whose rack differs from rackID is never
	// routed by IP from here — its GC state lives on its own ToR — it is
	// reached only through a handoff.
	rackID     int
	memberRack map[uint32]int
	remoteDead map[uint32]bool
	// replaced maps a repaired (formerly failed) stripe member to the
	// replacement holder now serving its chunks: traffic addressed to
	// the old id is rewritten and served directly, not degraded.
	replaced map[uint32]uint32
	handoff  Handoff
	// down marks a failed ToR: it drops every packet until repaired.
	down bool

	qdisc   Qdisc
	forward Forwarder
	stats   Stats
	passes  sim.Pool[pass]

	// dropRate injects gc_op reply loss (link failure testing, §3.5.1:
	// the vSSD retries three times then collects anyway).
	dropRate float64
	dropRNG  *sim.RNG

	// TraceHook, when non-nil, observes every packet leaving the
	// pipeline. It is a pure observer: it runs after the routing
	// decision is made and must not mutate the packet or schedule
	// events, so installing it never changes a run.
	TraceHook func(ev TraceEvent)
}

// TraceEvent describes one packet's passage through the switch pipeline
// for the flight recorder: when it arrived at the egress queue, the
// total in-switch dwell (queueing plus match-action latency), and what
// the pipeline decided.
type TraceEvent struct {
	// Seq is the end-to-end request sequence number (0 for control
	// packets such as gc_ops).
	Seq  uint64
	VSSD uint32
	Op   packet.Op
	// Rack is the switch's rack id.
	Rack int
	// Arrived is when the packet entered the egress queue. Dwell is its
	// queueing wait plus the match-action latency, so the queue released
	// it at Arrived+Dwell-pipelineLatency.
	Arrived sim.Time
	Dwell   sim.Time
}

// New builds a switch with the given egress discipline and forwarder.
func New(eng *sim.Engine, q Qdisc, fwd Forwarder) *Switch {
	if q == nil {
		q = Passthrough{}
	}
	return &Switch{
		eng:        eng,
		replica:    make(map[uint32]*replicaEntry),
		dest:       make(map[uint32]*destEntry),
		failover:   make(map[uint32]uint32),
		stripe:     make(map[uint32][]uint32),
		memberRack: make(map[uint32]int),
		remoteDead: make(map[uint32]bool),
		replaced:   make(map[uint32]uint32),
		qdisc:      q,
		forward:    fwd,
	}
}

// ConfigureRack assigns the switch its rack id and the handoff path to
// sibling ToRs (multi-rack clusters).
func (s *Switch) ConfigureRack(id int, handoff Handoff) {
	s.rackID = id
	s.handoff = handoff
}

// RackID returns the configured rack id.
func (s *Switch) RackID() int { return s.rackID }

// SetDown marks the ToR failed (true) or repaired (false); a failed ToR
// drops every packet, isolating its rack from the cluster.
func (s *Switch) SetDown(down bool) { s.down = down }

// Down reports whether the ToR is failed.
func (s *Switch) Down() bool { return s.down }

// Stats returns a copy of the event counters.
func (s *Switch) Stats() Stats { return s.stats }

// SetDropRate makes the switch drop gc_op replies with probability p,
// for failure-injection tests.
func (s *Switch) SetDropRate(p float64, rng *sim.RNG) {
	s.dropRate = p
	s.dropRNG = rng
}

// TableSizeBytes reports the SRAM the tables would occupy on-switch:
// replica rows are 1B GC + 4B replica id, destination rows 1B GC + 4B IP,
// both keyed by a 4-byte vSSD id (§3.3 sizes the maximum at 1.3 MB).
func (s *Switch) TableSizeBytes() int {
	return len(s.replica)*(4+1+4) + len(s.dest)*(4+1+4)
}

// Registered reports whether a vSSD has table state.
func (s *Switch) Registered(vssd uint32) bool {
	_, ok := s.replica[vssd]
	return ok
}

// GCStatus exposes the replica-table GC bit (tests and the controller).
func (s *Switch) GCStatus(vssd uint32) bool {
	if e, ok := s.replica[vssd]; ok {
		return e.gc
	}
	return false
}

// ReplicaOf returns the registered replica id.
func (s *Switch) ReplicaOf(vssd uint32) (uint32, bool) {
	if e, ok := s.replica[vssd]; ok {
		return e.replica, true
	}
	return 0, false
}

// DestIP returns the registered server IP for a vSSD.
func (s *Switch) DestIP(vssd uint32) (uint32, bool) {
	if e, ok := s.dest[vssd]; ok {
		return e.ip, true
	}
	return 0, false
}

// RegisterStripe records an erasure-coded stripe group (control plane,
// like Failover): every member's reads become eligible for degraded
// routing to the surviving members. Members must already be registered
// in the destination table via create_vssd. All members are taken to be
// local to this ToR's rack; multi-rack groups use RegisterStripeMembers.
func (s *Switch) RegisterStripe(group []uint32) {
	racks := make([]int, len(group))
	for i := range racks {
		racks[i] = s.rackID
	}
	s.RegisterStripeMembers(group, racks)
}

// RegisterStripeMembers records a stripe group whose members span racks:
// racks[i] is member i's rack. Local members route by IP; remote members
// are reachable only through an inter-switch handoff, since their GC and
// failure state lives on their own ToR. The member list need not stop at
// the code's k+m global holders: local-parity layouts append one parity
// holder per rack, and the table treats them as full members — eligible
// degraded-read targets (a parity holder coordinates its rack's XOR
// reconstruction), consulted by the GC staggering, and replaceable after
// repair like any other holder.
func (s *Switch) RegisterStripeMembers(group []uint32, racks []int) {
	if len(group) != len(racks) {
		panic("switchsim: stripe group and rack list lengths differ")
	}
	g := append([]uint32(nil), group...)
	for i, id := range g {
		s.stripe[id] = g
		s.memberRack[id] = racks[i]
	}
}

// MarkRemoteDead records that a stripe member homed in another rack has
// failed (control-plane propagation from its own ToR's failover), so
// degraded reads stop handing off toward it.
func (s *Switch) MarkRemoteDead(id uint32) { s.remoteDead[id] = true }

// ClearRemoteDead removes a remote-dead mark after the member became
// reachable again (its ToR revived, or a replacement was registered).
func (s *Switch) ClearRemoteDead(id uint32) { delete(s.remoteDead, id) }

// RemoteDead reports whether a member is currently marked dead-remote.
func (s *Switch) RemoteDead(id uint32) bool { return s.remoteDead[id] }

// ReplaceStripeMember re-registers a rebuilt chunk holder (control
// plane): member old's chunks have been reconstructed onto replacement,
// so old is swapped out of the stripe table, its failover and
// remote-dead entries are cleared, and traffic still addressed to old
// is rewritten to the replacement and served directly — post-repair
// reads stop paying the degraded-reconstruction cost. The call is
// idempotent; it is a no-op when old has no stripe state here or the
// replacement is not a registered member of the same group.
func (s *Switch) ReplaceStripeMember(old, replacement uint32) {
	group, ok := s.stripe[old]
	if !ok || old == replacement {
		return
	}
	if _, ok := s.stripe[replacement]; !ok {
		return
	}
	for i, id := range group {
		if id == old {
			group[i] = replacement
		}
	}
	s.replaced[old] = replacement
	delete(s.failover, old)
	delete(s.remoteDead, old)
}

// RestoreStripeMember re-registers a member under its own id after a
// catch-up repair rebuilt its chunks back onto the original server
// (server revival): the failover rewrite and remote-dead mark are
// dropped, and if a replacement alias had been installed it is removed
// and the member takes back a slot in its group row — chasing the
// replacement chain in case the alias target was itself later repaired
// elsewhere. A no-op for members with no stripe state here.
func (s *Switch) RestoreStripeMember(id uint32) {
	group, ok := s.stripe[id]
	if !ok {
		return
	}
	delete(s.failover, id)
	delete(s.remoteDead, id)
	cur, ok := s.replaced[id]
	if !ok {
		return
	}
	delete(s.replaced, id)
	for i := 0; i < 16; i++ {
		nxt, ok2 := s.replaced[cur]
		if !ok2 || nxt == cur {
			break
		}
		cur = nxt
	}
	for i, m := range group {
		if m == cur {
			group[i] = id
			return
		}
	}
}

// ReplacedBy returns the replacement holder registered for a repaired
// member, if any.
func (s *Switch) ReplacedBy(id uint32) (uint32, bool) {
	r, ok := s.replaced[id]
	return r, ok
}

// FailedOver returns the survivor a member's traffic is rewritten to, if
// any.
func (s *Switch) FailedOver(id uint32) (uint32, bool) {
	survivor, ok := s.failover[id]
	return survivor, ok
}

// applyReplaced rewrites a packet addressed to a repaired member toward
// its registered replacement, chasing the chain that forms when a
// replacement itself later fails and is repaired elsewhere, and reports
// whether a rewrite happened. Chains are acyclic by construction — a
// replaced member is dead and never adopts — but the hop bound keeps a
// corrupted table from looping the pipeline.
func (s *Switch) applyReplaced(pkt *packet.Packet) bool {
	moved := false
	for i := 0; i < 16; i++ {
		nw, ok := s.replaced[pkt.VSSD]
		if !ok || nw == pkt.VSSD {
			break
		}
		pkt.VSSD = nw
		if de, ok2 := s.dest[nw]; ok2 {
			pkt.DstIP = de.ip
		}
		moved = true
	}
	if moved {
		s.stats.Reintegrated++ // once per packet, however long the chain
	}
	return moved
}

// InstallVSSD installs a vSSD's replica and destination rows directly
// (control plane), mirroring what a create_vssd packet would do. The
// revival replay uses it to rebuild a ToR's tables from surviving state.
func (s *Switch) InstallVSSD(vssd, ip, replica, replicaIP uint32) {
	s.replica[vssd] = &replicaEntry{replica: replica}
	s.dest[vssd] = &destEntry{ip: ip}
	if _, ok := s.dest[replica]; !ok {
		s.dest[replica] = &destEntry{ip: replicaIP}
	}
}

// ResetTables models the SRAM loss of a power-cycled switch: every
// table — replica, destination, failover, stripe, member-rack,
// remote-dead, replacement — is cleared. A revived ToR starts from this
// blank state and has its tables replayed by the control plane.
func (s *Switch) ResetTables() {
	s.replica = make(map[uint32]*replicaEntry)
	s.dest = make(map[uint32]*destEntry)
	s.failover = make(map[uint32]uint32)
	s.stripe = make(map[uint32][]uint32)
	s.memberRack = make(map[uint32]int)
	s.remoteDead = make(map[uint32]bool)
	s.replaced = make(map[uint32]uint32)
}

// RegisterDest installs a destination-table row directly (control
// plane): the failover path uses it so a rewrite target living under
// another ToR still resolves to an IP here.
func (s *Switch) RegisterDest(vssd uint32, ip uint32) {
	if _, ok := s.dest[vssd]; !ok {
		s.dest[vssd] = &destEntry{ip: ip}
	}
}

// StripeGroup returns the registered group of a chunk holder.
func (s *Switch) StripeGroup(vssd uint32) ([]uint32, bool) {
	g, ok := s.stripe[vssd]
	return g, ok
}

// local reports whether a stripe member is homed under this ToR.
func (s *Switch) local(id uint32) bool { return s.memberRack[id] == s.rackID }

// chunkHealthy reports whether a local chunk holder can serve reads now:
// it must be registered, not failed over, and not collecting garbage.
// Members of other racks are never "healthy" here — their state lives on
// their own ToR and reads reach them through a handoff instead.
func (s *Switch) chunkHealthy(id uint32) bool {
	if !s.local(id) {
		return false
	}
	if _, dead := s.failover[id]; dead {
		return false
	}
	de, ok := s.dest[id]
	return ok && !de.gc
}

// routeECRead steers a read for an erasure-coded chunk holder, rack-local
// first: healthy local targets keep their traffic; otherwise the read
// goes to a surviving local group member (scan offset rotates with the
// LPN so degraded traffic spreads over the group), which reconstructs
// from any k chunks. Only when no local member can serve does the read
// spill onto the spine: a handoff to the ToR of the next rack holding a
// live member. If nothing is reachable the failover table gets the last
// word. Returns false when the packet left via a handoff; the caller's
// dwell is charged here in that case, since the packet still crossed
// this switch's pipeline and egress queue on its way out.
func (s *Switch) routeECRead(pkt *packet.Packet, group []uint32, dwell sim.Time, reassigned bool) bool {
	if s.chunkHealthy(pkt.VSSD) {
		return true
	}
	// A registered local holder that is not failed over is unhealthy
	// only because its GC bit is set: the read carries that reason to
	// whichever member ends up serving it.
	if de, ok := s.dest[pkt.VSSD]; ok && de.gc && s.local(pkt.VSSD) {
		if _, dead := s.failover[pkt.VSSD]; !dead {
			pkt.GCSteered = true
		}
	}
	// The packet was just rewritten to a re-integrated replacement homed
	// in another rack (the alias can point across racks). Its rebuilt
	// chunk is intact there, so hand the read to its own ToR — which
	// knows its GC and failure state — instead of paying a k-fetch
	// reconstruction here. Only alias-rewritten packets take this path:
	// an ordinary handoff arriving for a remote member must not bounce
	// back toward the rack that could not serve it.
	if reassigned && !s.local(pkt.VSSD) && !s.remoteDead[pkt.VSSD] &&
		s.handoff != nil && pkt.Handoffs < maxHandoffs {
		pkt.Handoffs++
		s.stats.Handoffs++
		pkt.AddLatency(dwell)
		s.handoff(*pkt, s.memberRack[pkt.VSSD])
		return false
	}
	n := len(group)
	start := int(pkt.LPN) % n
	for i := 0; i < n; i++ {
		id := group[(start+i)%n]
		if id == pkt.VSSD || !s.chunkHealthy(id) {
			continue
		}
		pkt.VSSD = id
		pkt.DstIP = s.dest[id].ip
		s.stats.Redirected++
		s.stats.DegradedRedirects++
		return true
	}
	if s.handoff != nil && pkt.Handoffs < maxHandoffs {
		for i := 0; i < n; i++ {
			id := group[(start+i)%n]
			if s.local(id) || s.remoteDead[id] {
				continue
			}
			pkt.Handoffs++
			s.stats.Handoffs++
			pkt.AddLatency(dwell)
			s.handoff(*pkt, s.memberRack[id])
			return false
		}
	}
	s.applyFailover(pkt)
	return true
}

// Process handles one packet arriving at the switch at the current virtual
// time. The packet passes the egress discipline, then the Algorithm 1
// match-action logic, and leaves via the Forwarder with its INT latency
// updated by the full in-switch dwell time.
func (s *Switch) Process(pkt packet.Packet) {
	if s.down {
		s.stats.Dropped++ // failed ToR: the rack is dark
		return
	}
	now := s.eng.Now()
	release := s.qdisc.Admit(pkt, now)
	if release < now {
		release = now
	}
	p := s.passes.Get()
	p.sw, p.pkt, p.arrived = s, pkt, now
	s.eng.Schedule(release, labelPipeline, p)
}

// labelPipeline counts packets leaving the egress queue for the pipeline.
var labelPipeline = sim.NewLabel("switch.pipeline")

// pass is one packet between the egress queue and the match-action
// pipeline: a pooled event record, so switching a packet allocates
// nothing.
type pass struct {
	sw      *Switch
	pkt     packet.Packet
	arrived sim.Time
}

func (p *pass) Fire(now sim.Time) {
	s, pkt, arrived := p.sw, p.pkt, p.arrived
	*p = pass{}
	s.passes.Put(p)
	s.runPipeline(pkt, arrived, now)
}

// runPipeline applies Algorithm 1 after the packet clears the egress queue.
func (s *Switch) runPipeline(pkt packet.Packet, arrived, now sim.Time) {
	dwell := now - arrived + pipelineLatency
	if s.TraceHook != nil {
		s.TraceHook(TraceEvent{Seq: pkt.Seq, VSSD: pkt.VSSD, Op: pkt.Op,
			Rack: s.rackID, Arrived: arrived, Dwell: dwell})
	}
	switch pkt.Op {
	case packet.OpCreateVSSD:
		s.handleCreate(pkt)
		return // control-plane insert; no data-plane forward
	case packet.OpDelVSSD:
		delete(s.replica, pkt.VSSD)
		delete(s.dest, pkt.VSSD)
		return
	case packet.OpWrite:
		// Writes are never redirected (Algorithm 1 line 2-3) — unless
		// their target was repaired elsewhere or failed, in which case
		// the replacement (or surviving replica) is the only copy left
		// to apply them.
		s.applyReplaced(&pkt)
		s.applyFailover(&pkt)
		pkt.AddLatency(dwell)
		s.emit(pkt)
	case packet.OpRead:
		reassigned := s.applyReplaced(&pkt)
		s.handleRead(pkt, dwell, reassigned)
	case packet.OpGC:
		s.handleGC(pkt, dwell)
	case packet.OpResponse:
		pkt.AddLatency(dwell)
		s.emit(pkt)
	default:
		s.stats.Dropped++
	}
}

func (s *Switch) handleCreate(pkt packet.Packet) {
	// Register the vSSD and pre-register its replica's destination so
	// redirection works before the replica's own create arrives.
	s.replica[pkt.VSSD] = &replicaEntry{replica: pkt.ReplicaVSSD}
	s.dest[pkt.VSSD] = &destEntry{ip: pkt.SrcIP}
	if _, ok := s.dest[pkt.ReplicaVSSD]; !ok {
		s.dest[pkt.ReplicaVSSD] = &destEntry{ip: pkt.ReplicaIP}
	}
}

// handleRead implements Algorithm 1 lines 4-9: redirect a read away from a
// collecting vSSD when its replica is idle. Erasure-coded chunk holders
// take the stripe-routing path instead: their "replica" is the whole
// surviving group. reassigned marks a packet the replacement table just
// rewrote (see applyReplaced).
func (s *Switch) handleRead(pkt packet.Packet, dwell sim.Time, reassigned bool) {
	if group, ok := s.stripe[pkt.VSSD]; ok {
		if s.routeECRead(&pkt, group, dwell, reassigned) {
			pkt.AddLatency(dwell)
			s.emit(pkt)
		}
		return
	}
	s.applyFailover(&pkt)
	re, ok := s.replica[pkt.VSSD]
	if ok && re.gc {
		if de, ok2 := s.dest[re.replica]; ok2 && !de.gc {
			pkt.DstIP = de.ip
			pkt.VSSD = re.replica
			s.stats.Redirected++
		}
		// If both the vSSD and its replica are collecting, forward as is.
	}
	pkt.AddLatency(dwell)
	s.emit(pkt)
}

// handleGC implements Algorithm 1 lines 10-25.
func (s *Switch) handleGC(pkt packet.Packet, dwell sim.Time) {
	re, ok := s.replica[pkt.VSSD]
	if !ok {
		s.stats.Dropped++
		return
	}
	de := s.dest[pkt.VSSD]
	re.gc = true
	switch pkt.GC {
	case packet.GCSoft:
		// Soft requests read the replica's state and update their own:
		// one extra pipeline pass (recirculation) keeps the two register
		// accesses consistent.
		s.stats.Recirculations++
		dwell += recirculateLatency
		replicaBusy := false
		if group, ecOK := s.stripe[pkt.VSSD]; ecOK {
			// Rack-aware staggering: a chunk holder may soft-collect only
			// while no other member of its stripe group does, so degraded
			// reads always find k survivors. Failed-over members are
			// skipped — a ghost GC bit left by a crashed holder must not
			// block the survivors' soft GC forever.
			// Only local members are consulted: a remote member's GC bit
			// lives on its own ToR (the per-rack stripe table's blind
			// spot, one cost of the multi-rack design point).
			for _, id := range group {
				if id == pkt.VSSD || !s.local(id) {
					continue
				}
				if _, dead := s.failover[id]; dead {
					continue
				}
				if rd, ok2 := s.dest[id]; ok2 && rd.gc {
					replicaBusy = true
					break
				}
			}
		} else if rd, ok2 := s.dest[re.replica]; ok2 && rd.gc {
			replicaBusy = true
		}
		if replicaBusy {
			pkt.GC = packet.GCDelay
			re.gc = false
			if de != nil {
				de.gc = false // recirculated update keeps both tables consistent
			}
			s.stats.GCDelayed++
		} else {
			pkt.GC = packet.GCAccept
			if de != nil {
				de.gc = true
			}
			s.stats.GCAccepted++
		}
	case packet.GCFinish:
		re.gc = false
		if de != nil {
			de.gc = false
		}
		s.stats.GCFinished++
		return // finish needs no reply
	default: // regular and background: never denied
		if de != nil {
			de.gc = true
		}
		pkt.GC = packet.GCAccept
		s.stats.GCAccepted++
	}
	// Reply to the requesting server.
	pkt.DstIP, pkt.SrcIP = pkt.SrcIP, pkt.DstIP
	pkt.AddLatency(dwell)
	if s.dropRate > 0 && s.dropRNG != nil && s.dropRNG.Bool(s.dropRate) {
		s.stats.Dropped++
		return
	}
	s.emit(pkt)
}

// Failover marks vssd dead: the data plane rewrites its traffic to the
// surviving replica until re-replication re-registers the pair (§3.7:
// "On server failure, RackBlox replicates the replicas to other servers
// and updates their switches").
func (s *Switch) Failover(vssd, survivor uint32) {
	s.failover[vssd] = survivor
	// Clear both tables' GC bits: the dead vSSD will never send the
	// gc_op finish that would otherwise release them.
	if e, ok := s.replica[vssd]; ok {
		e.gc = false
	}
	if d, ok := s.dest[vssd]; ok {
		d.gc = false
	}
}

// FailoverCleared removes a failover entry after recovery.
func (s *Switch) FailoverCleared(vssd uint32) { delete(s.failover, vssd) }

func (s *Switch) applyFailover(pkt *packet.Packet) {
	if survivor, ok := s.failover[pkt.VSSD]; ok {
		if de, ok2 := s.dest[survivor]; ok2 {
			pkt.VSSD = survivor
			pkt.DstIP = de.ip
			s.stats.FailedOver++
			// A stale entry may name a survivor that has since been
			// repaired onto a replacement; resolve the rewrite through
			// the replacement table so traffic never targets a member
			// that no longer serves.
			s.applyReplaced(pkt)
		}
	}
}

func (s *Switch) emit(pkt packet.Packet) {
	s.stats.Forwarded++
	if s.forward == nil {
		panic(fmt.Sprintf("switchsim: no forwarder for packet %+v", pkt))
	}
	s.forward(pkt)
}
