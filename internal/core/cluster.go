package core

import (
	"sort"

	"rackblox/internal/packet"
	"rackblox/internal/sim"
	"rackblox/internal/switchsim"
	"rackblox/internal/trace"
)

// The multi-rack topology: the experiment's rack fault domains sit under
// a simulated spine/aggregation link with finite bandwidth and added
// latency. Each rack gets its own ToR switch; stripe traffic that cannot
// be served rack-locally is handed between ToRs over the spine, and bulk
// repair traffic (degraded-read chunk fetches, background reconstruction)
// is metered on the shared link. With one rack the topology degenerates
// to the paper's testbed: a single ToR, no spine.

// buildToRs wires one ToR switch per rack, each sharing the rack's
// forwarding fabric and handing stripe reads to its siblings over the
// spine.
func (r *Rack) buildToRs() {
	racks := r.cfg.racks()
	r.tors = make([]*switchsim.Switch, racks)
	r.torDetected = make([]bool, racks)
	r.torCrashes = make([]int, racks)
	for j := range r.tors {
		tor := switchsim.New(r.eng, switchsim.QdiscByName(r.cfg.defaultQdisc()), r.forwarderFor(j))
		tor.ConfigureRack(j, r.handoff)
		if r.cfg.GCReplyDropRate > 0 {
			tor.SetDropRate(r.cfg.GCReplyDropRate, r.rng.Fork(int64(101+10*j)))
		}
		r.tors[j] = tor
	}
}

// handoff carries a stripe read from one ToR to another over the spine,
// metered as foreground traffic. A failed destination ToR drops it
// there, like any packet it processes.
func (r *Rack) handoff(pkt packet.Packet, rack int) {
	sp := r.spanFor(pkt.Seq)
	if sp != nil {
		h := sp.Child("handoff", r.eng.Now())
		h.EndAt(r.eng.Now() + r.spine.Propagation())
		h.Annotate(trace.Int("to_rack", int64(rack)))
	}
	delay := r.spine.Propagation() + r.spine.MeterForeground(r.spine.FrameBytes(pkt), sp)
	pkt.AddLatency(delay)
	r.toTor(delay, labelNetHandoff, r.tors[rack], pkt)
}

// failToR takes one rack's ToR down at the injection instant.
func (r *Rack) failToR(rack int) {
	r.torCrashes[rack]++
	r.tors[rack].SetDown(true)
}

// scheduleScenario arms the run's fault/recovery timeline
// (Config.Scenario) on the engine: one crash callback per fail event at
// its instant, one heartbeat-detection callback three silent periods
// later, and one revival callback per revive event. Validate has already
// accepted the timeline as a whole, so nothing is checked here. The
// timeline is walked in stable time order, and every revive event is
// inserted before any fail event, so at one instant a revival runs
// before a heartbeat detection: a ToR revived exactly when its detector
// fires comes back without first being failed over. This tie order, like
// list order among same-instant fail events, is part of the Scenario
// semantics; changing it changes Results. Each detection callback is
// stamped with the crash epoch that armed it and fires only while that
// epoch's outage persists: a server (or ToR) that revived and crashed
// again inside the detection window is a new outage whose own detector
// honors the full three missed heartbeats.
func (r *Rack) scheduleScenario() {
	order := append([]Event(nil), r.cfg.Scenario...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].At < order[j].At })
	detect := sim.Time(missedHeartbeats * HeartbeatInterval)
	for _, ev := range order {
		ev := ev
		// A fail event arms the per-request client loss detectors.
		r.anyFailure = r.anyFailure || ev.Kind.fails()
		switch ev.Kind {
		case EventReviveServer:
			r.eng.Schedule(ev.At, labelScenario, sim.EventFunc(func(now sim.Time) {
				if r.ReviveServer(ev.Index) {
					r.tracer.Instant("scenario", "revive_server", now,
						trace.Int("server", int64(ev.Index)))
				}
			}))
		case EventReviveToR:
			r.eng.Schedule(ev.At, labelScenario, sim.EventFunc(func(now sim.Time) {
				if r.ReviveToR(ev.Index) {
					r.tracer.Instant("scenario", "revive_tor", now,
						trace.Int("rack", int64(ev.Index)))
				}
			}))
		}
	}
	serverEpoch := make(map[int]int)
	torEpoch := make(map[int]int)
	for _, ev := range order {
		ev := ev
		switch ev.Kind {
		case EventFailServer:
			srv := r.servers[ev.Index]
			serverEpoch[ev.Index]++
			epoch := serverEpoch[ev.Index]
			r.eng.Schedule(ev.At, labelScenario, sim.EventFunc(func(now sim.Time) {
				srv.failed = true
				srv.crashes++
				r.tracer.Instant("scenario", "fail_server", now,
					trace.Int("server", int64(ev.Index)))
			}))
			r.eng.Schedule(ev.At+detect, labelScenario, sim.EventFunc(func(sim.Time) {
				// failed==false: revived before detection, a transient
				// blip. crashes!=epoch: this detector's outage already
				// ended and a newer crash owns the server.
				if srv.failed && srv.crashes == epoch {
					r.onServerDetectedDead(srv)
				}
			}))
		case EventFailRack:
			lo := ev.Index * r.cfg.StorageServers
			hi := lo + r.cfg.StorageServers
			epochs := make([]int, hi-lo)
			for i := lo; i < hi; i++ {
				serverEpoch[i]++
				epochs[i-lo] = serverEpoch[i]
			}
			r.eng.Schedule(ev.At, labelScenario, sim.EventFunc(func(now sim.Time) {
				for i := lo; i < hi; i++ {
					r.servers[i].failed = true
					r.servers[i].crashes++
				}
				r.tracer.Instant("scenario", "fail_rack", now,
					trace.Int("rack", int64(ev.Index)))
			}))
			r.eng.Schedule(ev.At+detect, labelScenario, sim.EventFunc(func(sim.Time) {
				for i := lo; i < hi; i++ {
					if r.servers[i].failed && r.servers[i].crashes == epochs[i-lo] {
						r.onServerDetectedDead(r.servers[i])
					}
				}
			}))
		case EventFailToR:
			torEpoch[ev.Index]++
			epoch := torEpoch[ev.Index]
			r.eng.Schedule(ev.At, labelScenario, sim.EventFunc(func(now sim.Time) {
				r.failToR(ev.Index)
				r.tracer.Instant("scenario", "fail_tor", now,
					trace.Int("rack", int64(ev.Index)))
			}))
			r.eng.Schedule(ev.At+detect, labelScenario, sim.EventFunc(func(sim.Time) {
				if r.torCrashes[ev.Index] == epoch {
					r.onToRDetectedDead(ev.Index)
				}
			}))
		}
	}
}

// ReviveServer brings a crashed storage server back online
// (EventReviveServer, or direct calls from tests and tools). The box
// returns with blank DRAM and flash, so recovery is more than flipping
// a bit: every erasure-coded chunk holder it hosted is rebuilt from
// scratch by the metered reconstructor (catch-up repair re-targeted at
// the original holder, spilling onto the spine like any other repair)
// and re-registered under its own id when the last chunk lands;
// replicated instances re-pair with their survivors via Hermes AddPeer
// once the failover rewrites are withdrawn. Reviving a healthy or
// out-of-range server is a no-op returning false.
func (r *Rack) ReviveServer(idx int) bool {
	if idx < 0 || idx >= len(r.servers) {
		return false
	}
	srv := r.servers[idx]
	if !srv.failed {
		return false
	}
	detected := srv.detected
	srv.failed = false
	srv.detected = false
	r.res.ServerRevivals++
	if detected {
		r.onServerRevived(srv)
	}
	return true
}

// ReviveToR un-darkens a failed ToR (EventReviveToR, or direct calls
// from tests and tools): the switch comes back with blank SRAM, so
// the control plane replays its tables from surviving cluster state —
// vSSD registrations, stripe members with any repaired replacements,
// and failover/remote-dead marks for members that are still dead — and
// clears the remote-dead and failover entries sibling ToRs hold for the
// revived rack's now-reachable members. Reviving an up ToR is a no-op,
// as is a second revival of the same ToR; both return false.
func (r *Rack) ReviveToR(rack int) bool {
	if rack < 0 || rack >= len(r.tors) || !r.tors[rack].Down() {
		return false
	}
	r.torDetected[rack] = false
	r.res.ToRRevivals++
	tor := r.tors[rack]
	tor.SetDown(false)
	tor.ResetTables()
	r.replayToR(rack)
	return true
}

// reachable reports whether a server can exchange traffic with the rest
// of the cluster: it must be alive and its rack's ToR must be up.
func (s *server) reachable() bool {
	return !s.failed && !s.rack.tors[s.rackIdx].Down()
}

// torOf returns the ToR switch serving a server's rack.
func (r *Rack) torOf(s *server) *switchsim.Switch {
	return r.tors[s.rackIdx]
}
