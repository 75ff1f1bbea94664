package core

import (
	"rackblox/internal/packet"
	"rackblox/internal/sim"
	"rackblox/internal/trace"
)

// Spine is the explicit cross-rack boundary: the one place where traffic
// between racks is latency-charged and bandwidth-metered, and the one
// object cross-rack code is allowed to touch. Everything that leaves a
// rack — ToR handoffs, Hermes replication messages, degraded-read chunk
// fetches, repair batches, re-integration updates — pays the spine here,
// never by reaching into another rack's objects. Once racks run on the
// shards of a sim.ShardGroup, the spine is the only state cross-rack
// interactions may share, which is why the boundary is explicit.
//
// With one rack the spine degenerates to the paper's testbed: no link
// (nil), zero latency, every meter call free.
type Spine struct {
	eng      *sim.Engine
	link     *sim.Bandwidth // nil with one rack
	latency  sim.Time
	pageSize int64

	// Cross-rack repair accounting: chunk bytes moved over the spine for
	// degraded reads and background reconstruction. The delivered
	// counter advances only when a transfer's last byte clears the link;
	// the offered counter keeps the enqueue-time meaning, so a run that
	// ends mid-transfer reports delivered < offered instead of claiming
	// bytes the spine never finished moving.
	crossRepairBytes   int64
	crossRepairOffered int64
	crossFetches       int64
	// Foreground accounting: client/stripe packet bytes metered on the
	// same spine (handoffs, cross-rack requests, responses, replication
	// messages), kept separate from repair bytes so the two traffic
	// classes can be compared while contending for one link. Delivered/
	// offered split as for repair bytes.
	foregroundBytes   int64
	foregroundOffered int64
	deliveries        sim.Pool[spineDelivery]
}

// newSpine builds the cross-rack boundary for a topology of racks fault
// domains on eng. The link exists only when racks > 1.
func newSpine(eng *sim.Engine, cfg *Config) *Spine {
	s := &Spine{
		eng:      eng,
		latency:  cfg.CrossRackLatency,
		pageSize: int64(cfg.Geometry.PageSize),
	}
	if cfg.racks() > 1 {
		s.link = sim.NewBandwidth(eng, cfg.CrossRackMBps*1e6)
	}
	return s
}

// Latency is the added one-way latency between two racks (0 within one
// rack).
func (s *Spine) Latency(a, b int) sim.Time {
	if a == b {
		return 0
	}
	return s.latency
}

// Propagation returns the unconditional cross-rack propagation latency —
// the Latency(a, b) value for any a != b.
func (s *Spine) Propagation() sim.Time { return s.latency }

// Link exposes the metered bandwidth object (nil with one rack) for
// components that share the spine's capacity directly, like the repair
// pacer.
func (s *Spine) Link() *sim.Bandwidth { return s.link }

// frameHeaderBytes is the header cost every metered spine frame pays.
const frameHeaderBytes = 64

// MessageBytes sizes one spine frame: a header, plus a page when the
// message carries data. The single sizing rule for every foreground
// class (client packets, handoffs, replication messages).
func (s *Spine) MessageBytes(carriesPage bool) int64 {
	if carriesPage {
		return frameHeaderBytes + s.pageSize
	}
	return frameHeaderBytes
}

// FrameBytes estimates a packet's wire size for spine metering: ops
// that carry a page of data (writes and responses) move the page plus a
// header; the rest are header-only control frames. Write acks are
// overcounted as a page — the approximation errs toward congestion.
func (s *Spine) FrameBytes(pkt packet.Packet) int64 {
	return s.MessageBytes(pkt.Op == packet.OpWrite || pkt.Op == packet.OpResponse)
}

// MeterForeground reserves the spine for one foreground (non-repair)
// payload and returns the extra delay the sender pays before the spine's
// propagation latency: queueing behind earlier transfers — repair
// batches included, so client and repair traffic contend realistically —
// plus the transfer time itself. Free (and zero-delay) with one rack.
// A non-nil sp gets the spine queueing wait and the transfer window as
// child spans. Recording only reads the transfer's reservation times, so
// traced behavior is byte-identical to untraced.
func (s *Spine) MeterForeground(bytes int64, sp *trace.Span) sim.Time {
	if s.link == nil || bytes <= 0 {
		return 0
	}
	s.foregroundOffered += bytes
	d := s.deliveries.Get()
	d.spine, d.bytes = s, bytes
	start, end := s.link.Reserve(bytes, d)
	if sp != nil {
		if now := s.eng.Now(); start > now {
			sp.Child("spine_wait", now).EndAt(start)
		}
		x := sp.Child("spine_xfer", start)
		x.EndAt(end)
		x.Annotate(trace.Int("bytes", bytes))
	}
	return end - s.eng.Now()
}

// CrossFetch ships one repair payload (bytes of chunk data) over the
// metered spine link, returning the transfer window and calling done
// (may be nil) once the last byte has cleared the link. It is the single
// accounting point for cross-rack repair traffic; transfers serialize on
// the link, so aggregate repair throughput can never exceed the
// configured cross-rack bandwidth.
func (s *Spine) CrossFetch(bytes int64, done sim.Handler) (start, end sim.Time) {
	s.crossRepairOffered += bytes
	s.crossFetches++
	d := s.deliveries.Get()
	d.spine, d.bytes, d.repair, d.done = s, bytes, true, done
	return s.link.Reserve(bytes, d)
}

// spineDelivery is the pooled completion record of one spine transfer:
// it counts the delivered bytes as foreground or repair traffic, then
// fires the caller's handler, if any.
type spineDelivery struct {
	spine  *Spine
	bytes  int64
	repair bool
	done   sim.Handler
}

func (d *spineDelivery) Fire(now sim.Time) {
	s, done := d.spine, d.done
	if d.repair {
		s.crossRepairBytes += d.bytes
	} else {
		s.foregroundBytes += d.bytes
	}
	*d = spineDelivery{}
	s.deliveries.Put(d)
	if done != nil {
		done.Fire(now)
	}
}

// Utilization returns the cross-rack link's busy fraction (0 with a
// single rack).
func (s *Spine) Utilization() float64 {
	if s.link == nil {
		return 0
	}
	return s.link.Utilization()
}
