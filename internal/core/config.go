// Package core composes the full rack: clients, the ToR switch, storage
// servers with programmable SSDs, vSSD replica pairs kept consistent with
// Hermes replication, and the four systems the paper evaluates — VDC,
// RackBlox (Software), RackBlox-Coord I/O, and RackBlox. One Run simulates
// the end-to-end life of every I/O request and returns latency
// distributions and event counters.
package core

import (
	"errors"
	"fmt"

	"rackblox/internal/ec"
	"rackblox/internal/flash"
	"rackblox/internal/netsim"
	"rackblox/internal/sched"
	"rackblox/internal/sim"
	"rackblox/internal/trace"
)

// System selects which of the evaluated designs the rack runs.
type System int

const (
	// VDC is the virtual-datacenter baseline [6]: end-to-end token-bucket
	// isolation, storage treated as a black box, no GC coordination.
	VDC System = iota
	// RackBloxSoftware implements RackBlox's ideas in software on top of
	// VDC: a controller grants GC and servers redirect reads themselves,
	// paying extra network round trips (§4.1).
	RackBloxSoftware
	// RackBloxCoordIO is the ablation of §4.4: coordinated I/O scheduling
	// enabled, coordinated GC disabled.
	RackBloxCoordIO
	// RackBlox is the full system: switch-based coordinated I/O
	// scheduling and coordinated GC.
	RackBlox
)

func (s System) String() string {
	switch s {
	case VDC:
		return "VDC"
	case RackBloxSoftware:
		return "RackBlox (Software)"
	case RackBloxCoordIO:
		return "RackBlox-Coord I/O"
	case RackBlox:
		return "RackBlox"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// Systems lists all four in evaluation order.
func Systems() []System {
	return []System{VDC, RackBloxSoftware, RackBloxCoordIO, RackBlox}
}

// RedundancyScheme selects how a volume's data survives failures.
type RedundancyScheme int

const (
	// ReplicationScheme is the paper's design: every vSSD is a
	// primary+replica pair kept strongly consistent with Hermes.
	ReplicationScheme RedundancyScheme = iota
	// ErasureCoded stripes every volume RS(k,m) over k+m chunk holders
	// on distinct servers; reads of a failed or collecting chunk are
	// reconstructed from any k survivors.
	ErasureCoded
	// LocalParityCoded is the repair-efficient LRC variant of
	// ErasureCoded: the same RS(k,m) global code spread across racks,
	// plus one local parity chunk per rack (the XOR of the rack's global
	// chunks). A single-server loss repairs entirely inside its rack —
	// zero spine bytes — and multi-loss repair aggregates: each remote
	// rack combines its survivors locally and ships one chunk-sized
	// aggregate over the metered spine instead of its raw chunks.
	// Requires Racks > 1 and PlacementSpread.
	LocalParityCoded
)

// RedundancySpec selects Replication (the existing Hermes pairs) or
// ErasureCode{K, M} striping for every volume in the rack.
type RedundancySpec struct {
	Scheme RedundancyScheme
	// K and M are the RS parameters; ignored under ReplicationScheme.
	K, M int
}

// Replication returns the paper's 2-way Hermes replication spec.
func Replication() RedundancySpec { return RedundancySpec{Scheme: ReplicationScheme} }

// ErasureCode returns an RS(k,m) redundancy spec.
func ErasureCode(k, m int) RedundancySpec {
	return RedundancySpec{Scheme: ErasureCoded, K: k, M: m}
}

// LocalParityCode returns an LRC(k,m) redundancy spec: RS(k,m) global
// chunks spread across racks plus one local parity chunk per rack.
func LocalParityCode(k, m int) RedundancySpec {
	return RedundancySpec{Scheme: LocalParityCoded, K: k, M: m}
}

func (s RedundancySpec) String() string {
	switch s.Scheme {
	case ErasureCoded:
		return fmt.Sprintf("RS(%d,%d)", s.K, s.M)
	case LocalParityCoded:
		return s.ec().LocalString()
	}
	return "2-replication"
}

// ec converts the spec into the ec package's parameterization.
func (s RedundancySpec) ec() ec.Spec { return ec.Spec{K: s.K, M: s.M} }

// erasure reports whether the spec stripes volumes over chunk holders
// (either erasure-coding family) rather than replicating them.
func (s RedundancySpec) erasure() bool {
	return s.Scheme == ErasureCoded || s.Scheme == LocalParityCoded
}

// localParity reports the LRC family: per-rack local parity chunks and
// aggregated cross-rack repair.
func (s RedundancySpec) localParity() bool { return s.Scheme == LocalParityCoded }

// WorkloadSpec selects the client workload per vSSD pair.
type WorkloadSpec struct {
	// Name is "YCSB" (uses WriteFrac) or one of the Table 2 workloads:
	// TPC-H, Seats, AuctionMark, TPC-C, Twitter.
	Name string
	// WriteFrac applies to YCSB.
	WriteFrac float64
	// MeanGap is the mean interarrival time per vSSD (Poisson).
	MeanGap sim.Time
}

// PlacementMode selects how erasure-coded stripes map onto the cluster's
// rack fault domains (Config.Placement).
type PlacementMode = ec.PlacementMode

// Placement modes: compact confines each stripe group to one rack (the
// original rack-aware layout); spread distributes every stripe across
// racks with at most m chunks per rack, so a whole-rack or ToR failure
// leaves every stripe recoverable.
const (
	PlacementCompact = ec.PlaceCompact
	PlacementSpread  = ec.PlaceSpread
)

// Config parameterizes one rack experiment.
type Config struct {
	System System
	Seed   int64

	// StorageServers is the number of storage servers per rack (the
	// testbed uses four plus one client server).
	StorageServers int
	// Racks is the number of rack fault domains composed under the
	// cluster's spine link; 0 or 1 is the paper's single-rack testbed.
	// Each rack gets its own ToR switch.
	Racks int
	// Placement selects compact (per-rack) or spread (cross-rack)
	// placement for erasure-coded stripes; ignored under replication.
	Placement PlacementMode
	// CrossRackMBps is the spine/aggregation link capacity in MB/s shared
	// by all cross-rack repair traffic (degraded-read chunk fetches and
	// background reconstruction). Required when Racks > 1.
	CrossRackMBps float64
	// CrossRackLatency is the added one-way latency of a spine crossing
	// (ToR -> aggregation -> ToR), on top of the per-hop edge latency.
	CrossRackLatency sim.Time
	// RepairSLO enables the latency-SLO-aware repair rate controller on
	// the spine: a RepairPacer observes foreground read latency over a
	// sliding window and AIMD-adjusts the repair admission rate between
	// the configured bounds so background reconstruction never holds the
	// foreground p99 above RepairSLO.TargetP99 for long, while the
	// MinRateMBps floor guarantees repair still completes. The zero
	// value disables pacing (repair admitted whenever GC idle windows
	// allow, as before). Requires Racks > 1 — pacing meters the shared
	// cross-rack spine.
	RepairSLO RepairSLO
	// VSSDPairs is the number of logical volumes: primary+replica vSSD
	// pairs under ReplicationScheme, RS(k,m) stripe groups under
	// ErasureCoded.
	VSSDPairs int
	// Redundancy selects Hermes replication (default) or RS(k,m) erasure
	// coding for every volume.
	Redundancy RedundancySpec
	// ChannelsPerVSSD sets each hardware-isolated vSSD's channel count.
	ChannelsPerVSSD int
	// SoftwareIsolated switches to the Fig. 21 setup: two
	// software-isolated vSSDs share each channel set as a channel group.
	SoftwareIsolated bool

	Geometry flash.Geometry
	Device   flash.Profile
	Net      netsim.Profile
	// Qdisc names the switch egress policy: "", "TB", "FQ", "Priority".
	Qdisc string

	SchedPolicy sched.Policy
	// CoordinatedOverride forces coordinated I/O scheduling on (1) or off
	// (-1); 0 derives it from System.
	CoordinatedOverride int

	// GC thresholds as free-block ratios (§3.5.1).
	SoftThreshold float64
	GCThreshold   float64
	// RestoreDelta is the hysteresis above the triggering threshold that a
	// GC episode restores before stopping; small values keep episodes at a
	// few bursts instead of long channel-blocking trains.
	RestoreDelta float64
	// GCReplyDropRate injects switch-reply loss for failure testing.
	GCReplyDropRate float64
	// MaxClientInflight bounds each pair's outstanding requests
	// (semi-open loop: arrivals are Poisson but the window caps
	// divergence under saturation, like a finite client thread pool).
	MaxClientInflight int

	// Utilization is the FTL logical/raw ratio.
	Utilization float64
	// KeyspaceFrac is the fraction of logical pages the workload touches
	// (preconditioned to ~50% free blocks, §4.1).
	KeyspaceFrac float64

	Workload WorkloadSpec
	// Warmup discards samples before this time; Duration measures after.
	Warmup   sim.Time
	Duration sim.Time

	// Trace enables the flight recorder: per-request span traces with
	// phase attribution, control-plane instants, and GC bursts
	// (Result.Trace, Result.TailAttribution). Observer-only: a traced run
	// executes the exact same event sequence as an untraced one.
	Trace trace.Options
	// MetricsInterval enables the time-series sampler at this period
	// (Result.Timelines): gauges and counters read by the engine's
	// observer tick, which fires between events without being one. 0
	// disables sampling.
	MetricsInterval sim.Time

	// Scenario is the run's fault/recovery timeline: an ordered schedule
	// of typed events (FailServer, FailRack, FailToR, ReviveServer,
	// ReviveToR), each at its own instant, validated as a whole and
	// executed by the cluster's event driver. It is the only way to
	// inject faults: events carry independent times, so one run can mix
	// server revival with catch-up repair, repeated fail/heal cycles and
	// staggered rack and ToR outages. Empty means a fault-free run.
	//
	//	cfg.Scenario = []core.Event{
	//		core.FailServer(0, 120*sim.Millisecond),
	//		core.ReviveServer(0, 300*sim.Millisecond),
	//		core.FailServer(0, 650*sim.Millisecond),
	//	}
	Scenario []Event
}

// Fixed parameters of the simulated rack, the same in every run.
const (
	// gcCheckInterval is the periodic GC monitor period (the paper
	// defaults to 30s on real hardware; simulations compress it).
	gcCheckInterval = 2 * sim.Millisecond
	// idleGCThreshold gates background GC.
	idleGCThreshold = 30 * sim.Millisecond
	// maxGCOpRetries bounds gc_op retransmissions on reply loss.
	maxGCOpRetries = 3
	// maxGCBlocksPerBurst caps one GC event's reclaimed blocks, bounding
	// the channel-blocked window to a few milliseconds per event. A
	// redirection-protected soft episode runs chunk by chunk under the
	// same cap, so the partner's delay budget holds.
	maxGCBlocksPerBurst = 1
	// writeCachePages sizes each server's DRAM write cache.
	writeCachePages = 2048
	// cacheHoldPages is the write-back watermark: dirty pages are flushed
	// only above this level, so the hottest keys keep absorbing rewrites
	// in DRAM. It controls how much of the write stream reaches flash.
	cacheHoldPages = 128
	// swIsolationIOPS is the per-vSSD token-bucket limit when
	// Config.SoftwareIsolated.
	swIsolationIOPS = 50_000
)

// DefaultConfig returns the paper's default setup scaled to simulation:
// four storage servers, four hardware-isolated vSSD pairs on P-SSDs,
// Kyber scheduling, 35%/25% GC thresholds, YCSB 50/50 at moderate load.
func DefaultConfig() Config {
	return Config{
		System:           RackBlox,
		Seed:             1,
		StorageServers:   4,
		Racks:            1,
		CrossRackMBps:    200,
		CrossRackLatency: 50 * sim.Microsecond,
		VSSDPairs:        4,
		Redundancy:       Replication(),
		ChannelsPerVSSD:  2,
		Geometry: flash.Geometry{
			Channels:        8,
			ChipsPerChannel: 4,
			BlocksPerChip:   16,
			PagesPerBlock:   32,
			PageSize:        4096,
		},
		Device:            flash.ProfilePSSD(),
		Net:               netsim.ProfileMedium(),
		SchedPolicy:       sched.Kyber,
		SoftThreshold:     0.35,
		GCThreshold:       0.25,
		RestoreDelta:      0.04,
		MaxClientInflight: 32,
		Utilization:       0.75,
		KeyspaceFrac:      0.55,
		Workload:          WorkloadSpec{Name: "YCSB", WriteFrac: 0.5, MeanGap: 200 * sim.Microsecond},
		Warmup:            100 * sim.Millisecond,
		Duration:          1000 * sim.Millisecond,
	}
}

// Servers address as 10.0.<rack>.<16+local>, so a rack holds at most
// 240 of them and a cluster at most 256 racks.
const (
	maxServersPerRack = 256 - 16
	maxRacks          = 256
)

// racks normalizes the fault-domain count: 0 means one rack.
func (c *Config) racks() int {
	if c.Racks < 1 {
		return 1
	}
	return c.Racks
}

// totalServers is the cluster-wide storage-server count.
func (c *Config) totalServers() int { return c.racks() * c.StorageServers }

// coordinated reports whether the storage scheduler uses network state.
func (c *Config) coordinated() bool {
	switch c.CoordinatedOverride {
	case 1:
		return true
	case -1:
		return false
	}
	return c.System != VDC
}

// gcCoordinated reports whether GC is coordinated (switch or software).
func (c *Config) gcCoordinated() bool {
	return c.System == RackBlox || c.System == RackBloxSoftware
}

// defaultQdisc picks the paper's per-system default egress policy: VDC and
// its software extension enforce token-bucket isolation; RackBlox uses the
// switch's default priority isolation, which without cross-traffic has no
// queueing (§4.1).
func (c *Config) defaultQdisc() string {
	if c.Qdisc != "" {
		return c.Qdisc
	}
	if c.System == VDC || c.System == RackBloxSoftware {
		return "TB"
	}
	return "None"
}

// FailureSpecError reports an invalid fault or repair configuration: a
// Scenario event with an out-of-range index, one that crashes something
// already down, revives something that is up, or double-books a fault
// domain; or a RepairSLO the cluster cannot honor.
type FailureSpecError struct {
	// Field names the offending configuration field.
	Field string
	// Index is the rejected value.
	Index int
	// Reason says what is wrong with it.
	Reason string
}

func (e *FailureSpecError) Error() string {
	return fmt.Sprintf("core: %s: index %d %s", e.Field, e.Index, e.Reason)
}

// Validate checks configuration invariants.
func (c *Config) Validate() error {
	if c.StorageServers < 2 {
		return errors.New("core: need at least two storage servers for replication")
	}
	if c.StorageServers > maxServersPerRack || c.racks() > maxRacks {
		return fmt.Errorf("core: at most %d racks of %d storage servers fit the 10.0.<rack>.<16+server> address plan",
			maxRacks, maxServersPerRack)
	}
	if c.VSSDPairs < 1 {
		return errors.New("core: need at least one vSSD pair")
	}
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if c.racks() > 1 {
		if c.CrossRackMBps <= 0 {
			return errors.New("core: multi-rack cluster needs positive cross-rack bandwidth")
		}
		if c.CrossRackLatency < 0 {
			return errors.New("core: cross-rack latency must be non-negative")
		}
	}
	if c.Redundancy.erasure() {
		if c.Redundancy.localParity() {
			if err := c.Redundancy.ec().ValidateClusterLocal(c.racks(), c.StorageServers, c.Placement); err != nil {
				return err
			}
		} else if err := c.Redundancy.ec().ValidateCluster(c.racks(), c.StorageServers, c.Placement); err != nil {
			return err
		}
		if c.SoftwareIsolated {
			return errors.New("core: erasure coding requires hardware-isolated vSSDs")
		}
	}
	if err := c.RepairSLO.validate(c.racks(), c.CrossRackMBps); err != nil {
		return err
	}
	if err := c.validateScenario(); err != nil {
		return err
	}
	need := c.neededChannelsPerServer()
	if need > c.Geometry.Channels {
		return fmt.Errorf("core: %d volumes need %d channels/server, device has %d",
			c.VSSDPairs, need, c.Geometry.Channels)
	}
	if !(c.GCThreshold < c.SoftThreshold) {
		return fmt.Errorf("core: thresholds must order gc < soft, got %f %f",
			c.GCThreshold, c.SoftThreshold)
	}
	if c.RestoreDelta <= 0 || c.SoftThreshold+c.RestoreDelta >= 1 {
		return fmt.Errorf("core: restore delta %f out of range", c.RestoreDelta)
	}
	if c.Utilization <= 0 || c.Utilization >= 1 {
		return fmt.Errorf("core: utilization %f outside (0,1)", c.Utilization)
	}
	if c.KeyspaceFrac <= 0 || c.KeyspaceFrac > 1 {
		return fmt.Errorf("core: keyspace fraction %f outside (0,1]", c.KeyspaceFrac)
	}
	if c.Workload.MeanGap <= 0 {
		return errors.New("core: workload mean gap must be positive")
	}
	if c.Duration <= 0 {
		return errors.New("core: duration must be positive")
	}
	if c.MetricsInterval < 0 {
		return errors.New("core: metrics interval must be non-negative")
	}
	if c.Trace.SampleEvery < 0 || c.Trace.TailKeep < 0 {
		return errors.New("core: trace sampling knobs must be non-negative")
	}
	return nil
}

// placer builds the cluster's erasure-coding placer from the config.
func (c *Config) placer() ec.Placer {
	return ec.Placer{
		Servers:    c.StorageServers,
		Racks:      c.racks(),
		Width:      c.Redundancy.ec().Width(),
		Mode:       c.Placement,
		MaxPerRack: c.Redundancy.M,
	}
}

// neededChannelsPerServer computes channel demand per server. With P
// replicated pairs round-robin over S servers each server hosts
// ceil(2P/S) instances; erasure-coded groups place per the rack-aware
// Placer (plus one local parity instance per rack under the LRC
// family), so demand is the maximum of its actual assignment.
func (c *Config) neededChannelsPerServer() int {
	if c.Redundancy.erasure() {
		placer := c.placer()
		counts := make([]int, placer.TotalServers())
		most := 0
		for g := 0; g < c.VSSDPairs; g++ {
			placed := placer.Place(g)
			if c.Redundancy.localParity() {
				placed = append(placed, placer.LocalParityServers(g, placed)...)
			}
			for _, s := range placed {
				counts[s]++
				if counts[s] > most {
					most = counts[s]
				}
			}
		}
		return most * c.ChannelsPerVSSD
	}
	instances := (2*c.VSSDPairs + c.totalServers() - 1) / c.totalServers()
	return instances * c.ChannelsPerVSSD
}
