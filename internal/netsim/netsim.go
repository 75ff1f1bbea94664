// Package netsim models datacenter network latency for the RackBlox
// simulation. The paper drives its testbed with traces from three sources
// — PTPmesh [67] (fast), tenant-inferred latency [59] (medium), and AWS
// tenant measurements [32] (slow) — scaled to emulate congestion. We
// synthesize the same three regimes: a log-normal latency body, a Pareto
// tail, and on/off congestion episodes that multiply latency while active.
package netsim

import (
	"fmt"

	"rackblox/internal/sim"
)

// Profile parameterizes one latency regime for a single network hop
// (host -> ToR or ToR -> host).
type Profile struct {
	Name string
	// MedianNS is the median one-hop latency.
	MedianNS float64
	// Sigma is the log-normal shape of the latency body.
	Sigma float64
	// TailProb is the probability a sample comes from the Pareto tail.
	TailProb float64
	// TailAlpha is the Pareto tail index (smaller = heavier).
	TailAlpha float64
	// CongestionRate is the mean time between congestion episodes.
	CongestionRate sim.Time
	// CongestionDur is the mean length of an episode.
	CongestionDur sim.Time
	// CongestionFactor multiplies latency during an episode.
	CongestionFactor float64
}

// The three regimes of §4.5.3. Values are one-way per-hop latencies chosen
// to land end-to-end RTTs in the ranges the cited measurement studies
// report: tens of µs (intra-rack, PTPmesh), hundreds of µs (tenant-level),
// and around a millisecond (cross-AZ AWS).
func ProfileFast() Profile {
	return Profile{
		Name: "Fast", MedianNS: 12_000, Sigma: 0.35, TailProb: 0.01, TailAlpha: 2.2,
		CongestionRate: 120 * sim.Millisecond, CongestionDur: 6 * sim.Millisecond, CongestionFactor: 6,
	}
}

func ProfileMedium() Profile {
	return Profile{
		Name: "Medium", MedianNS: 60_000, Sigma: 0.45, TailProb: 0.015, TailAlpha: 2.0,
		CongestionRate: 100 * sim.Millisecond, CongestionDur: 8 * sim.Millisecond, CongestionFactor: 7,
	}
}

func ProfileSlow() Profile {
	return Profile{
		Name: "Slow", MedianNS: 250_000, Sigma: 0.55, TailProb: 0.02, TailAlpha: 1.8,
		CongestionRate: 80 * sim.Millisecond, CongestionDur: 10 * sim.Millisecond, CongestionFactor: 8,
	}
}

// ProfileByName resolves one of the three regimes.
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "Fast":
		return ProfileFast(), nil
	case "Medium":
		return ProfileMedium(), nil
	case "Slow":
		return ProfileSlow(), nil
	}
	return Profile{}, fmt.Errorf("netsim: unknown profile %q", name)
}

// Network samples hop latencies under a profile, maintaining congestion
// state in virtual time. It is deterministic for a given seed.
type Network struct {
	prof Profile
	rng  *sim.RNG
	// congestion window [start, end) currently or next in effect.
	congStart sim.Time
	congEnd   sim.Time
}

// New creates a network latency model.
func New(prof Profile, rng *sim.RNG) *Network {
	n := &Network{prof: prof, rng: rng}
	n.scheduleNextEpisode(0)
	return n
}

func (n *Network) scheduleNextEpisode(after sim.Time) {
	gap := n.rng.Exp(n.prof.CongestionRate)
	dur := n.rng.Exp(n.prof.CongestionDur)
	if dur < sim.Millisecond {
		dur = sim.Millisecond
	}
	n.congStart = after + gap
	n.congEnd = n.congStart + dur
}

// Congested reports whether a congestion episode covers time now.
func (n *Network) Congested(now sim.Time) bool {
	n.advance(now)
	return now >= n.congStart && now < n.congEnd
}

func (n *Network) advance(now sim.Time) {
	for now >= n.congEnd {
		n.scheduleNextEpisode(n.congEnd)
	}
}

// HopLatency samples the latency of one hop beginning at time now.
func (n *Network) HopLatency(now sim.Time) sim.Time {
	n.advance(now)
	var v float64
	if n.rng.Float64() < n.prof.TailProb {
		v = n.rng.Pareto(n.prof.MedianNS*2, n.prof.TailAlpha)
	} else {
		v = n.rng.LogNormal(n.prof.MedianNS, n.prof.Sigma)
	}
	if now >= n.congStart && now < n.congEnd {
		v *= n.prof.CongestionFactor
	}
	lat := sim.Time(v)
	if lat < 1000 {
		lat = 1000 // 1us floor: wire and serialization are never free
	}
	return lat
}

// PathLatency samples a hops-hop path (e.g. host->ToR->host is 2 hops).
func (n *Network) PathLatency(now sim.Time, hops int) sim.Time {
	var total sim.Time
	for i := 0; i < hops; i++ {
		total += n.HopLatency(now + total)
	}
	return total
}
