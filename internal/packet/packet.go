// Package packet implements the RackBlox network packet format (Fig. 6)
// and protocol operations (Table 1). The RackBlox header rides inside the
// L4 payload of ordinary TCP/UDP packets, so regular switches forward it
// untouched; only the ToR switch interprets it, selected by a reserved
// port.
package packet

import "fmt"

// Op is the 1-byte operation field.
type Op uint8

// Protocol operations (Table 1).
const (
	// OpCreateVSSD registers a newly created vSSD in the ToR switch.
	OpCreateVSSD Op = iota + 1
	// OpDelVSSD removes a registered vSSD from the tables.
	OpDelVSSD
	// OpWrite is a client write.
	OpWrite
	// OpRead is a client read.
	OpRead
	// OpGC updates GC state for a vSSD.
	OpGC
	// OpResponse carries a completion back to the client.
	OpResponse
)

func (o Op) String() string {
	switch o {
	case OpCreateVSSD:
		return "create_vssd"
	case OpDelVSSD:
		return "del_vssd"
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpGC:
		return "gc_op"
	case OpResponse:
		return "response"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// GCField is the gc byte in a gc_op payload (§3.5.1).
type GCField uint8

const (
	// GCSoft requests GC below the soft threshold; the switch may delay it.
	GCSoft GCField = 0
	// GCRegular requests GC below the hard threshold; never denied.
	GCRegular GCField = 1
	// GCBackground announces idle-cycle GC; executed without approval.
	GCBackground GCField = 2
	// GCAccept is the switch's approval.
	GCAccept GCField = 3
	// GCDelay is the switch's postponement (replica is collecting).
	GCDelay GCField = 4
	// GCFinish tells the switch GC completed; it clears both tables.
	GCFinish GCField = 5
)

func (g GCField) String() string {
	switch g {
	case GCSoft:
		return "soft"
	case GCRegular:
		return "regular"
	case GCBackground:
		return "bg"
	case GCAccept:
		return "accept"
	case GCDelay:
		return "delay"
	case GCFinish:
		return "finish"
	default:
		return fmt.Sprintf("GCField(%d)", uint8(g))
	}
}

// ReservedPort is the TCP/UDP port that marks RackBlox packets at the ToR.
const ReservedPort = 0x5258 // "RX"

// HeaderSize is the fixed RackBlox header length in bytes:
// 1 (OP) + 4 (vSSD_ID) + 4 (LAT).
const HeaderSize = 9

// Packet is the in-simulation representation of one RackBlox message.
// SrcIP/DstIP stand in for the L2/L3 routing header; the RackBlox header
// fields follow Fig. 6.
type Packet struct {
	SrcIP uint32
	DstIP uint32
	Port  uint16

	// Op is the RackBlox operation.
	Op Op
	// VSSD is the 4-byte target vSSD id.
	VSSD uint32
	// LatUS is the 4-byte accumulated network latency in microseconds,
	// filled by In-band Network Telemetry as the packet crosses switches.
	LatUS uint32

	// GC is the gc field carried in gc_op payloads.
	GC GCField
	// ReplicaVSSD and ReplicaIP ride in create_vssd payloads.
	ReplicaVSSD uint32
	ReplicaIP   uint32
	// LPN is the logical page addressed by read/write payloads.
	LPN uint32
	// Seq is a client-assigned request id echoed in responses.
	Seq uint64
	// Handoffs counts inter-switch stripe handoffs this packet has taken
	// (multi-rack degraded routing); a one-byte TTL against ping-pong
	// between ToRs that both lack a healthy local member.
	Handoffs uint8
	// GCSteered marks a read steered away from its target because the
	// target was collecting garbage: by a ToR for an erasure-coded chunk
	// holder whose GC bit is set, or by a server forwarding around its
	// own GC in RackBlox (Software). Simulation metadata, not part of
	// the Fig. 6 header.
	GCSteered bool
}

// AddLatency accumulates per-hop latency (ns) into the INT field,
// saturating rather than wrapping.
func (p *Packet) AddLatency(ns int64) {
	us := uint64(p.LatUS) + uint64(ns/1000)
	if us > 0xFFFFFFFF {
		us = 0xFFFFFFFF
	}
	p.LatUS = uint32(us)
}

// LatencyNS returns the INT-accumulated latency in nanoseconds.
func (p *Packet) LatencyNS() int64 { return int64(p.LatUS) * 1000 }

// IP4 packs a dotted quad into the uint32 wire form.
func IP4(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}
