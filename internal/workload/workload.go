// Package workload generates the I/O streams of Table 2: YCSB with
// configurable read/write mixes and zipfian skew, plus profile generators
// for the five BenchBase applications (TPC-H, Seats, AuctionMark, TPC-C,
// Twitter) with the paper's measured write ratios and request patterns.
package workload

import (
	"fmt"

	"rackblox/internal/sim"
)

// Op is one logical storage operation.
type Op struct {
	Write bool
	LPN   uint32
}

// Generator produces an operation stream and its arrival process.
type Generator interface {
	// Name identifies the workload.
	Name() string
	// Next returns the next operation.
	Next() Op
	// NextGap returns the interarrival time before the next request.
	NextGap() sim.Time
}

// Write ratios from Table 2.
const (
	TPCHWriteFrac        = 0.0227
	SeatsWriteFrac       = 0.1034
	AuctionMarkWriteFrac = 0.5376
	TPCCWriteFrac        = 0.5995
	TwitterWriteFrac     = 0.9786
)

// Mix names a YCSB read/write split like "95/5".
func Mix(readPct int) string {
	return fmt.Sprintf("%d/%d", readPct, 100-readPct)
}

// ycsb is the YCSB generator: zipfian keys, Bernoulli write choice,
// Poisson arrivals.
type ycsb struct {
	name      string
	writeFrac float64
	keys      *sim.Zipf
	rng       *sim.RNG
	meanGap   sim.Time
}

// NewYCSB builds a YCSB generator over a key space of n pages with the
// given write fraction and mean interarrival gap (Poisson arrivals).
func NewYCSB(rng *sim.RNG, n uint64, writeFrac float64, meanGap sim.Time) Generator {
	return &ycsb{
		name:      "YCSB " + Mix(int(100-float64(writeFrac*100)+0.5)),
		writeFrac: writeFrac,
		keys:      sim.NewZipf(rng.Fork(1), 0.99, n),
		rng:       rng,
		meanGap:   meanGap,
	}
}

func (y *ycsb) Name() string      { return y.name }
func (y *ycsb) NextGap() sim.Time { return y.rng.Exp(y.meanGap) }

func (y *ycsb) Next() Op {
	return Op{
		Write: y.rng.Bool(y.writeFrac),
		LPN:   uint32(y.keys.Next()),
	}
}

// profile is a BenchBase-style application generator. Request patterns
// differ along two axes the evaluation cares about: key locality
// (scan-heavy vs point accesses) and phasing (AuctionMark issues "a long
// sequence of writes followed by a sequence of reads", §4.3).
type profile struct {
	name      string
	writeFrac float64
	rng       *sim.RNG
	keys      *sim.Zipf
	n         uint64
	meanGap   sim.Time

	// scanFrac is the probability a read continues a sequential scan.
	scanFrac float64
	scanPos  uint32

	// phaseLen > 0 switches between write and read phases of that length.
	phaseLen  int
	phasePos  int
	inWrites  bool
	burstGap  sim.Time // tighter spacing inside a phase burst
	burstFrac float64  // fraction of requests arriving at burst spacing
}

func (p *profile) Name() string { return p.name }

func (p *profile) NextGap() sim.Time {
	if p.burstFrac > 0 && p.rng.Bool(p.burstFrac) {
		return p.rng.Exp(p.burstGap)
	}
	return p.rng.Exp(p.meanGap)
}

func (p *profile) Next() Op {
	var write bool
	if p.phaseLen > 0 {
		// Phased pattern: alternate write and read runs sized so the
		// overall mix matches writeFrac.
		if p.phasePos == 0 {
			p.inWrites = !p.inWrites
			if p.inWrites {
				p.phasePos = int(float64(p.phaseLen) * p.writeFrac)
			} else {
				p.phasePos = int(float64(p.phaseLen) * (1 - p.writeFrac))
			}
			if p.phasePos < 1 {
				p.phasePos = 1
			}
		}
		p.phasePos--
		write = p.inWrites
	} else {
		write = p.rng.Bool(p.writeFrac)
	}

	var lpn uint32
	if !write && p.scanFrac > 0 && p.rng.Bool(p.scanFrac) {
		p.scanPos = (p.scanPos + 1) % uint32(p.n)
		lpn = p.scanPos
	} else {
		lpn = uint32(p.keys.Next())
		p.scanPos = lpn
	}
	return Op{Write: write, LPN: lpn}
}

// NewTPCH models TPC-H: scan-dominated analytics with 2.27% writes.
func NewTPCH(rng *sim.RNG, n uint64, meanGap sim.Time) Generator {
	return &profile{
		name: "TPC-H", writeFrac: TPCHWriteFrac, rng: rng,
		keys: sim.NewZipf(rng.Fork(2), 0.8, n), n: n, meanGap: meanGap,
		scanFrac: 0.85,
	}
}

// NewSeats models the SEATS airline ticketing mix: 10.34% writes,
// point lookups with moderate skew.
func NewSeats(rng *sim.RNG, n uint64, meanGap sim.Time) Generator {
	return &profile{
		name: "Seats", writeFrac: SeatsWriteFrac, rng: rng,
		keys: sim.NewZipf(rng.Fork(3), 0.95, n), n: n, meanGap: meanGap,
	}
}

// NewAuctionMark models AuctionMark: 53.76% writes arriving in long
// write-then-read phases, which leaves fewer reads exposed to GC (§4.3).
func NewAuctionMark(rng *sim.RNG, n uint64, meanGap sim.Time) Generator {
	return &profile{
		name: "AuctionMark", writeFrac: AuctionMarkWriteFrac, rng: rng,
		keys: sim.NewZipf(rng.Fork(4), 0.9, n), n: n, meanGap: meanGap,
		phaseLen: 400, burstFrac: 0.3, burstGap: meanGap / 4,
	}
}

// NewTPCC models TPC-C: 59.95% writes, high skew on hot warehouse rows.
func NewTPCC(rng *sim.RNG, n uint64, meanGap sim.Time) Generator {
	return &profile{
		name: "TPC-C", writeFrac: TPCCWriteFrac, rng: rng,
		keys: sim.NewZipf(rng.Fork(5), 1.1, n), n: n, meanGap: meanGap,
	}
}

// NewTwitter models the Twitter micro-blog mix: 97.86% writes (timeline
// appends) with skew toward hot users.
func NewTwitter(rng *sim.RNG, n uint64, meanGap sim.Time) Generator {
	return &profile{
		name: "Twitter", writeFrac: TwitterWriteFrac, rng: rng,
		keys: sim.NewZipf(rng.Fork(6), 1.0, n), n: n, meanGap: meanGap,
		burstFrac: 0.2, burstGap: meanGap / 3,
	}
}

// TableEntry is one row of Table 2.
type TableEntry struct {
	Name        string
	Description string
	WritePct    float64
}

// Table2 returns the paper's workload table.
func Table2() []TableEntry {
	return []TableEntry{
		{"YCSB", "Cloud data serving queries.", -1}, // 0-100%, configurable
		{"TPC-H", "Business-oriented ad-hoc queries.", 2.27},
		{"Seats", "Airline ticketing system queries.", 10.34},
		{"AuctionMark", "Activity queries in an auction site.", 53.76},
		{"TPC-C", "Online transaction queries.", 59.95},
		{"Twitter", "Micro-blogging website queries.", 97.86},
	}
}

// ByName builds the named BenchBase workload generator.
func ByName(name string, rng *sim.RNG, n uint64, meanGap sim.Time) (Generator, error) {
	switch name {
	case "TPC-H":
		return NewTPCH(rng, n, meanGap), nil
	case "Seats":
		return NewSeats(rng, n, meanGap), nil
	case "AuctionMark":
		return NewAuctionMark(rng, n, meanGap), nil
	case "TPC-C":
		return NewTPCC(rng, n, meanGap), nil
	case "Twitter":
		return NewTwitter(rng, n, meanGap), nil
	}
	return nil, fmt.Errorf("workload: unknown workload %q", name)
}

// Names lists the five BenchBase workloads in Table 2 order.
func Names() []string {
	return []string{"TPC-H", "Seats", "AuctionMark", "TPC-C", "Twitter"}
}
