// Package stats collects latency samples and computes the summary
// statistics reported throughout the RackBlox evaluation: percentiles
// (P50..P99.9), means, throughput, and per-stage latency breakdowns.
// A Recorder keeps every sample of a run, 21 bytes each, and every value
// it records round-trips exactly, so each percentile is computed from all
// the samples rather than estimated.
package stats

import (
	"fmt"
	"math"
	"slices"
)

// Sample is one completed I/O request with its per-stage latencies,
// all in nanoseconds of virtual time.
type Sample struct {
	// Total is the end-to-end latency observed by the client.
	Total int64
	// NetIn is time spent in the network from client to server.
	NetIn int64
	// Queue is time spent waiting in the storage stack's I/O queue.
	Queue int64
	// Device is flash service time (including any GC blocking).
	Device int64
	// NetOut is time from the server back to the client.
	NetOut int64
	// Write reports whether this was a write request.
	Write bool
	// Redirected reports whether the switch redirected this request.
	Redirected bool
}

// Storage returns the storage-stack portion of the latency (queue+device),
// the "Stor" series of Fig. 15.
func (s Sample) Storage() int64 { return s.Queue + s.Device }

// recorderChunk is how many samples one chunk of a Recorder holds.
const recorderChunk = 16 << 10

// The latency fields of a Sample, in the order of a chunk's columns.
const (
	colTotal = iota
	colNetIn
	colQueue
	colDevice
	colNetOut
	numCols
)

// escaped marks a column entry whose value lies outside [0, escaped-1]:
// the exact value is the column's next entry in Recorder.wide.
const escaped = math.MaxUint32

// Bits of a chunk's flags column.
const (
	flagWrite uint8 = 1 << iota
	flagRedirected
)

// chunk stores recorderChunk samples as columns, in one allocation of
// 21 bytes per sample: each latency field as a uint32 of nanoseconds and
// the two booleans as one flags byte.
type chunk struct {
	col   [numCols][recorderChunk]uint32
	flags [recorderChunk]uint8
}

// Recorder accumulates samples for one experiment run. Every recorded
// value round-trips exactly: RawSamples returns what Add was given, and
// every Dist is the one a slice of those samples gives.
//
// Samples live in columnar chunks of recorderChunk, allocated as the run
// needs them and kept across Reset, so recording never copies what is
// already recorded. A sample costs 21 bytes as long as every latency lies
// in [0, 2^32-2] ns, about 4.3 s; a field outside that range is stored as
// escaped, with its value appended to an overflow list.
// It is not safe for concurrent use; the simulation is single-threaded.
type Recorder struct {
	chunks []*chunk
	n      int
	// wide holds, for each column in recording order, the values that
	// column stores as escaped.
	wide [numCols][]int64
	// start/end bound the measurement window for throughput.
	start, end int64
	redirects  int
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Add records one completed request finishing at virtual time now.
func (r *Recorder) Add(s Sample, now int64) {
	if r.n == 0 {
		r.start = now
	}
	if now > r.end {
		r.end = now
	}
	c, i := r.n/recorderChunk, r.n%recorderChunk
	if c == len(r.chunks) {
		r.chunks = append(r.chunks, new(chunk))
	}
	ch := r.chunks[c]
	ch.col[colTotal][i] = r.narrow(colTotal, s.Total)
	ch.col[colNetIn][i] = r.narrow(colNetIn, s.NetIn)
	ch.col[colQueue][i] = r.narrow(colQueue, s.Queue)
	ch.col[colDevice][i] = r.narrow(colDevice, s.Device)
	ch.col[colNetOut][i] = r.narrow(colNetOut, s.NetOut)
	var flags uint8
	if s.Write {
		flags |= flagWrite
	}
	if s.Redirected {
		flags |= flagRedirected
		r.redirects++
	}
	ch.flags[i] = flags
	r.n++
}

// narrow returns v as column col stores it.
func (r *Recorder) narrow(col int, v int64) uint32 {
	if uint64(v) < escaped {
		return uint32(v)
	}
	r.wide[col] = append(r.wide[col], v)
	return escaped
}

// exact returns the value stored as v in column col, where next counts
// the escaped entries of each column read so far in recording order.
func (r *Recorder) exact(col int, v uint32, next *[numCols]int) int64 {
	if v != escaped {
		return int64(v)
	}
	w := r.wide[col][next[col]]
	next[col]++
	return w
}

// rows returns how many samples chunk c holds.
func (r *Recorder) rows(c int) int { return min(recorderChunk, r.n-c*recorderChunk) }

// used returns how many chunks hold samples.
func (r *Recorder) used() int { return (r.n + recorderChunk - 1) / recorderChunk }

// Len returns the number of recorded samples.
func (r *Recorder) Len() int { return r.n }

// Redirects returns how many samples were redirected by the switch.
func (r *Recorder) Redirects() int { return r.redirects }

// Reset clears all samples while keeping the allocated chunks.
func (r *Recorder) Reset() {
	r.n = 0
	for col := range r.wide {
		r.wide[col] = r.wide[col][:0]
	}
	r.start, r.end, r.redirects = 0, 0, 0
}

// dist returns the sorted distribution, over the samples whose flags
// masked by mask equal want, of the sum of the given columns. It reads
// only the flags and those columns.
func (r *Recorder) dist(mask, want uint8, cols ...int) Dist {
	out := make([]int64, 0, r.n)
	var next [numCols]int
	for c := range r.used() {
		ch := r.chunks[c]
		for i, f := range ch.flags[:r.rows(c)] {
			var v int64
			for _, col := range cols {
				v += r.exact(col, ch.col[col][i], &next)
			}
			if f&mask == want {
				out = append(out, v)
			}
		}
	}
	slices.Sort(out)
	return Dist{out}
}

// Dist is an immutable sorted latency distribution.
type Dist struct{ v []int64 }

// Reads returns the end-to-end latency distribution of reads.
func (r *Recorder) Reads() Dist { return r.dist(flagWrite, 0, colTotal) }

// Writes returns the end-to-end latency distribution of writes.
func (r *Recorder) Writes() Dist { return r.dist(flagWrite, flagWrite, colTotal) }

// All returns the end-to-end latency distribution of all requests.
func (r *Recorder) All() Dist { return r.dist(0, 0, colTotal) }

// ReadStorage returns the storage-only latency distribution of reads.
func (r *Recorder) ReadStorage() Dist { return r.dist(flagWrite, 0, colQueue, colDevice) }

// WriteStorage returns the storage-only latency distribution of writes.
func (r *Recorder) WriteStorage() Dist {
	return r.dist(flagWrite, flagWrite, colQueue, colDevice)
}

// Throughput returns completed requests per second of virtual time (IOPS).
func (r *Recorder) Throughput() float64 {
	dur := r.end - r.start
	if dur <= 0 || r.n < 2 {
		return 0
	}
	return float64(r.n-1) / (float64(dur) / 1e9)
}

// Len returns the number of values in the distribution.
func (d Dist) Len() int { return len(d.v) }

// Percentile returns the p-th percentile (0 < p <= 100) using nearest-rank
// (see Rank). An empty distribution returns 0.
func (d Dist) Percentile(p float64) int64 {
	if len(d.v) == 0 {
		return 0
	}
	return d.v[Rank(p, len(d.v))]
}

// Mean returns the arithmetic mean, or 0 when empty.
func (d Dist) Mean() float64 {
	if len(d.v) == 0 {
		return 0
	}
	var sum float64
	for _, v := range d.v {
		sum += float64(v)
	}
	return sum / float64(len(d.v))
}

// Max returns the largest value, or 0 when empty.
func (d Dist) Max() int64 {
	if len(d.v) == 0 {
		return 0
	}
	return d.v[len(d.v)-1]
}

// Min returns the smallest value, or 0 when empty.
func (d Dist) Min() int64 {
	if len(d.v) == 0 {
		return 0
	}
	return d.v[0]
}

// P50, P75, P95, P99, P999 are the percentiles the paper reports.
func (d Dist) P50() int64  { return d.Percentile(50) }
func (d Dist) P75() int64  { return d.Percentile(75) }
func (d Dist) P95() int64  { return d.Percentile(95) }
func (d Dist) P99() int64  { return d.Percentile(99) }
func (d Dist) P999() int64 { return d.Percentile(99.9) }

// CDFPoint is one (percentile, latency) point of a tail CDF.
type CDFPoint struct {
	Pct     float64
	Latency int64
}

// TailCDF evaluates the distribution at the percentiles used in Figs. 16
// and 19 (98.5, 99, 99.5, 99.9) unless explicit points are given.
func (d Dist) TailCDF(pcts ...float64) []CDFPoint {
	if len(pcts) == 0 {
		pcts = []float64{98.5, 99, 99.5, 99.9}
	}
	out := make([]CDFPoint, len(pcts))
	for i, p := range pcts {
		out[i] = CDFPoint{Pct: p, Latency: d.Percentile(p)}
	}
	return out
}

// Ms formats a nanosecond latency as milliseconds with two decimals,
// the unit used in the paper's figures.
func Ms(ns int64) string { return fmt.Sprintf("%.2fms", float64(ns)/1e6) }

// Us formats a nanosecond latency as microseconds.
func Us(ns int64) string { return fmt.Sprintf("%.1fus", float64(ns)/1e3) }

// Normalize returns v/base, guarding against a zero base.
func Normalize(v, base int64) float64 {
	if base == 0 {
		return 0
	}
	return float64(v) / float64(base)
}

// Speedup returns base/v (how many times faster v is than base).
func Speedup(base, v int64) float64 {
	if v == 0 {
		return 0
	}
	return float64(base) / float64(v)
}

// RawSamples returns a copy of the recorder's samples in recording order,
// for diagnostic tooling.
func RawSamples(r *Recorder) []Sample {
	out := make([]Sample, 0, r.n)
	var next [numCols]int
	for c := range r.used() {
		ch := r.chunks[c]
		for i, f := range ch.flags[:r.rows(c)] {
			out = append(out, Sample{
				Total:      r.exact(colTotal, ch.col[colTotal][i], &next),
				NetIn:      r.exact(colNetIn, ch.col[colNetIn][i], &next),
				Queue:      r.exact(colQueue, ch.col[colQueue][i], &next),
				Device:     r.exact(colDevice, ch.col[colDevice][i], &next),
				NetOut:     r.exact(colNetOut, ch.col[colNetOut][i], &next),
				Write:      f&flagWrite != 0,
				Redirected: f&flagRedirected != 0,
			})
		}
	}
	return out
}
