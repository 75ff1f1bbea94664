package switchsim

import (
	"rackblox/internal/packet"
	"rackblox/internal/sim"
)

// Qdisc is an egress scheduling discipline. Admit returns the virtual time
// at which the packet may leave the switch; the difference from now is
// queueing delay, charged to the packet's INT latency.
type Qdisc interface {
	Name() string
	Admit(pkt packet.Packet, now sim.Time) sim.Time
}

// Passthrough forwards immediately (no cross-traffic contention).
type Passthrough struct{}

func (Passthrough) Name() string                                 { return "None" }
func (Passthrough) Admit(_ packet.Packet, now sim.Time) sim.Time { return now }

// TokenBucket rate-limits each flow (source IP), the isolation mechanism
// VDC uses end to end (§4.1 "multi-resource token bucket rate limiting").
type TokenBucket struct {
	// Rate is the sustained packets/second per flow.
	Rate float64
	// Burst is the bucket depth in packets.
	Burst float64

	buckets map[uint32]*bucketState
}

type bucketState struct {
	tokens float64
	last   sim.Time
}

// NewTokenBucket builds the policy with the given per-flow rate and burst.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if rate <= 0 {
		rate = 100_000
	}
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{Rate: rate, Burst: burst, buckets: map[uint32]*bucketState{}}
}

func (t *TokenBucket) Name() string { return "TB" }

func (t *TokenBucket) Admit(pkt packet.Packet, now sim.Time) sim.Time {
	b, ok := t.buckets[pkt.SrcIP]
	if !ok {
		b = &bucketState{tokens: t.Burst, last: now}
		t.buckets[pkt.SrcIP] = b
	}
	// Refill.
	b.tokens += float64(float64(now-b.last) / 1e9 * t.Rate)
	if b.tokens > t.Burst {
		b.tokens = t.Burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return now
	}
	// Wait until one token accumulates.
	deficit := 1 - b.tokens
	wait := sim.Time(deficit / t.Rate * 1e9)
	b.tokens = 0
	b.last = now + wait
	return now + wait
}

// FairQueue approximates per-flow fair queuing (start-time fair queuing
// with equal weights): each flow's packets are stamped with virtual finish
// times one service quantum apart, so N active flows each get 1/N of the
// egress capacity.
type FairQueue struct {
	// Quantum is the egress service time of one packet at full rate.
	Quantum sim.Time

	finish map[uint32]sim.Time
	// virtual clock lower-bounds finish tags so idle flows do not bank
	// unbounded credit.
	vclock sim.Time
}

// NewFairQueue builds the policy. Quantum <= 0 selects 1us (small packets
// at tens of Gb/s).
func NewFairQueue(quantum sim.Time) *FairQueue {
	if quantum <= 0 {
		quantum = sim.Microsecond
	}
	return &FairQueue{Quantum: quantum, finish: map[uint32]sim.Time{}}
}

func (f *FairQueue) Name() string { return "FQ" }

func (f *FairQueue) Admit(pkt packet.Packet, now sim.Time) sim.Time {
	if now > f.vclock {
		f.vclock = now
	}
	start := f.finish[pkt.SrcIP]
	if start < f.vclock {
		start = f.vclock
	}
	// Service cost grows with the number of flows that are currently
	// backlogged (finish tag still in the future).
	active := 1
	for _, fin := range f.finish {
		if fin > now {
			active++
		}
	}
	end := start + f.Quantum*sim.Time(active)
	f.finish[pkt.SrcIP] = end
	return end
}

// Priority models a strict-priority egress where periodic bursts of
// higher-priority traffic (generated per [72] in §4.5.2) occupy the port
// and delay storage packets until the burst drains.
type Priority struct {
	// Period is the burst repetition interval.
	Period sim.Time
	// BurstLen is how long each high-priority burst occupies the egress.
	BurstLen sim.Time
}

// NewPriority builds the policy; zeros select a 10ms period with 1ms
// bursts.
func NewPriority(period, burst sim.Time) *Priority {
	if period <= 0 {
		period = 10 * sim.Millisecond
	}
	if burst <= 0 {
		burst = sim.Millisecond
	}
	if burst >= period {
		burst = period / 2
	}
	return &Priority{Period: period, BurstLen: burst}
}

func (p *Priority) Name() string { return "Priority" }

func (p *Priority) Admit(pkt packet.Packet, now sim.Time) sim.Time {
	phase := now % p.Period
	if phase < p.BurstLen {
		// Inside a high-priority burst: wait for it to end.
		return now + (p.BurstLen - phase)
	}
	return now
}

// QdiscByName builds the §4.5.2 policies by display name.
func QdiscByName(name string) Qdisc {
	switch name {
	case "TB":
		return NewTokenBucket(200_000, 32)
	case "FQ":
		return NewFairQueue(0)
	case "Priority":
		return NewPriority(0, 0)
	default:
		return Passthrough{}
	}
}
