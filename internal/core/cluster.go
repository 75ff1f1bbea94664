package core

import (
	"sort"

	"rackblox/internal/packet"
	"rackblox/internal/sim"
	"rackblox/internal/switchsim"
	"rackblox/internal/trace"
)

// Cluster is the multi-rack topology layer: it composes the experiment's
// rack fault domains under a simulated spine/aggregation link with finite
// bandwidth and added latency. Each rack gets its own ToR switch; stripe
// traffic that cannot be served rack-locally is handed between ToRs over
// the spine, and bulk repair traffic (degraded-read chunk fetches,
// background reconstruction) is metered on the shared link. With one rack
// the cluster degenerates to the paper's testbed: a single ToR, no spine.
type Cluster struct {
	rack           *Rack
	racks          int
	serversPerRack int
	tors           []*switchsim.Switch
	spine          *Spine // the explicit cross-rack boundary (see spine.go)

	// ToR failure injection: torFailed flips at the configured instant,
	// torDetected when the heartbeat detector notices and the surviving
	// ToRs take over; torCrashes counts each ToR's failures so a
	// detection timer armed by one outage cannot fire for a later one.
	torFailed   []bool
	torDetected []bool
	torCrashes  []int

	torRevivals    int64
	serverRevivals int64
}

// newCluster wires the topology for r: per-rack ToR switches sharing the
// rack's forwarding fabric, and the spine boundary (with its metered
// link when racks > 1).
func newCluster(r *Rack) *Cluster {
	cfg := r.cfg
	c := &Cluster{
		rack:           r,
		racks:          cfg.racks(),
		serversPerRack: cfg.StorageServers,
		spine:          newSpine(r.eng, &cfg),
	}
	c.tors = make([]*switchsim.Switch, c.racks)
	c.torFailed = make([]bool, c.racks)
	c.torDetected = make([]bool, c.racks)
	c.torCrashes = make([]int, c.racks)
	for j := 0; j < c.racks; j++ {
		j := j
		tor := switchsim.New(r.eng, switchsim.QdiscByName(cfg.defaultQdisc()), r.forwarderFor(j))
		tor.ConfigureRack(j, func(pkt packet.Packet, rack int) { c.handoff(pkt, rack) })
		if cfg.GCReplyDropRate > 0 {
			tor.SetDropRate(cfg.GCReplyDropRate, r.rng.Fork(int64(101+10*j)))
		}
		c.tors[j] = tor
	}
	return c
}

// Racks returns the fault-domain count.
func (c *Cluster) Racks() int { return c.racks }

// RackOf maps a global server index to its rack.
func (c *Cluster) RackOf(server int) int { return server / c.serversPerRack }

// Tor returns one rack's ToR switch.
func (c *Cluster) Tor(rack int) *switchsim.Switch { return c.tors[rack] }

// TorDown reports whether a rack's ToR has failed (isolating the rack).
func (c *Cluster) TorDown(rack int) bool { return c.torFailed[rack] }

// Spine returns the cluster's cross-rack boundary: latency, metering,
// and byte accounting for everything that leaves a rack.
func (c *Cluster) Spine() *Spine { return c.spine }

// CrossRepairBytes returns the chunk bytes repair traffic has fully
// moved over the spine so far (transfers still in flight excluded).
func (c *Cluster) CrossRepairBytes() int64 { return c.spine.CrossRepairBytes() }

// CrossRepairBytesOffered returns the repair bytes handed to the spine,
// counted at enqueue — the old meaning of CrossRepairBytes.
func (c *Cluster) CrossRepairBytesOffered() int64 { return c.spine.CrossRepairBytesOffered() }

// ForegroundBytes returns the foreground (non-repair) bytes the spine
// has fully delivered so far.
func (c *Cluster) ForegroundBytes() int64 { return c.spine.ForegroundBytes() }

// ForegroundBytesOffered returns the foreground bytes handed to the
// spine, counted at enqueue.
func (c *Cluster) ForegroundBytesOffered() int64 { return c.spine.ForegroundBytesOffered() }

// ToRRevivals returns how many ToR switches have been revived.
func (c *Cluster) ToRRevivals() int64 { return c.torRevivals }

// ServerRevivals returns how many crashed servers have been revived.
func (c *Cluster) ServerRevivals() int64 { return c.serverRevivals }

// SpineUtilization returns the cross-rack link's busy fraction (0 with a
// single rack).
func (c *Cluster) SpineUtilization() float64 { return c.spine.Utilization() }

// handoff carries a stripe read from one ToR to another over the spine,
// metered as foreground traffic. A failed destination ToR drops it
// there, like any packet it processes.
func (c *Cluster) handoff(pkt packet.Packet, rack int) {
	sp := c.rack.spanFor(pkt.Seq)
	if sp != nil {
		h := sp.Child("handoff", c.rack.eng.Now())
		h.EndAt(c.rack.eng.Now() + c.spine.Propagation())
		h.Annotate(trace.Int("to_rack", int64(rack)))
	}
	delay := c.spine.Propagation() + c.spine.MeterForegroundTraced(c.spine.FrameBytes(pkt), sp)
	pkt.AddLatency(delay)
	c.rack.toTor(delay, labelNetHandoff, c.tors[rack], pkt)
}

// failToR takes one rack's ToR down at the injection instant.
func (c *Cluster) failToR(rack int) {
	c.torFailed[rack] = true
	c.torCrashes[rack]++
	c.tors[rack].SetDown(true)
}

// scheduleScenario arms the run's timeline on the engine: one crash
// callback per fail event at its instant, one heartbeat-detection
// callback three silent periods later, and one revival callback per
// revive event. The timeline is walked in stable time order, and every
// revive event is inserted before any fail event, so at one instant a
// revival runs before a heartbeat detection: a ToR revived exactly when
// its detector fires comes back without first being failed over. This
// tie order, like list order among same-instant fail events, is part of
// the Scenario semantics; changing it changes Results. Each detection
// callback is stamped with the crash epoch that armed it and fires only
// while that epoch's outage persists: a server (or ToR) that revived
// and crashed again inside the detection window is a new outage whose
// own detector honors the full three missed heartbeats.
func (c *Cluster) scheduleScenario(events []Event) {
	r := c.rack
	order := append([]Event(nil), events...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].At < order[j].At })
	detect := sim.Time(missedHeartbeats * HeartbeatInterval)
	for _, ev := range order {
		ev := ev
		switch ev.Kind {
		case EventReviveServer:
			r.eng.Schedule(ev.At, labelScenario, sim.EventFunc(func(now sim.Time) {
				if c.ReviveServer(ev.Index) {
					r.tracer.Instant("scenario", "revive_server", now,
						trace.Int("server", int64(ev.Index)))
				}
			}))
		case EventReviveToR:
			r.eng.Schedule(ev.At, labelScenario, sim.EventFunc(func(now sim.Time) {
				if c.ReviveToR(ev.Index) {
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
			lo := ev.Index * c.serversPerRack
			hi := lo + c.serversPerRack
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
				c.failToR(ev.Index)
				r.tracer.Instant("scenario", "fail_tor", now,
					trace.Int("rack", int64(ev.Index)))
			}))
			r.eng.Schedule(ev.At+detect, labelScenario, sim.EventFunc(func(sim.Time) {
				if c.torCrashes[ev.Index] == epoch {
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
func (c *Cluster) ReviveServer(idx int) bool {
	if idx < 0 || idx >= len(c.rack.servers) {
		return false
	}
	srv := c.rack.servers[idx]
	if !srv.failed {
		return false
	}
	detected := srv.detected
	srv.failed = false
	srv.detected = false
	c.serverRevivals++
	if detected {
		c.rack.onServerRevived(srv)
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
func (c *Cluster) ReviveToR(rack int) bool {
	if rack < 0 || rack >= c.racks || !c.torFailed[rack] {
		return false
	}
	c.torFailed[rack] = false
	c.torDetected[rack] = false
	c.torRevivals++
	tor := c.tors[rack]
	tor.SetDown(false)
	tor.ResetTables()
	c.rack.replayToR(rack)
	return true
}

// Stats sums the data-plane counters of every ToR in the cluster.
func (c *Cluster) Stats() switchsim.Stats {
	var total switchsim.Stats
	for _, tor := range c.tors {
		s := tor.Stats()
		total.Add(s)
	}
	return total
}

// reachable reports whether a server can exchange traffic with the rest
// of the cluster: it must be alive and its rack's ToR must be up.
func (s *server) reachable() bool {
	return !s.failed && !s.rack.cluster.torFailed[s.rackIdx]
}

// torOf returns the ToR switch serving a server's rack.
func (r *Rack) torOf(s *server) *switchsim.Switch {
	return r.cluster.tors[s.rackIdx]
}
