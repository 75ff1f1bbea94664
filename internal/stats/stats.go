// Package stats collects latency samples and computes the summary
// statistics reported throughout the RackBlox evaluation: percentiles
// (P50..P99.9), means, throughput, and per-stage latency breakdowns.
// A Recorder keeps every sample of a run, 13 bytes each: four 24-bit
// stage latencies and a flags byte, with Total rebuilt as the sum of the
// stages. Every value it records round-trips exactly, so each percentile
// is computed from all the samples rather than estimated.
package stats

import (
	"fmt"
	"slices"
)

// Sample is one completed I/O request with its per-stage latencies,
// all in nanoseconds of virtual time. The simulator's stages are
// non-negative and tile the request's lifetime, so they sum to Total. A
// Recorder stores any Sample exactly, and in 13 bytes when that holds
// and each stage is below 2^24-1 ns.
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

// The stage latencies of a Sample, in the order of a chunk's columns.
// Total has no column: it is the sum of the stages.
const (
	colNetIn = iota
	colQueue
	colDevice
	colNetOut
	numCols
	// wideTotal indexes, among the overflow lists, the Totals that are
	// not the sum of their stages.
	wideTotal = numCols
)

// escaped marks a column entry whose value lies outside [0, escaped-1]:
// the exact value is the column's next entry in Recorder.wide.
const escaped = 1<<24 - 1

// wideCap is how many values each overflow list holds before it first
// grows. The lists are allocated with the Recorder, so a run whose
// escapes fit records them without allocating.
const wideCap = 256

// Bits of a chunk's flags column.
const (
	flagWrite uint8 = 1 << iota
	flagRedirected
	// flagTotal marks a sample whose Total is not the sum of its stages:
	// the exact Total is the next entry in Recorder.wide[wideTotal].
	flagTotal
)

// chunk stores recorderChunk samples as columns, in one allocation of
// 13 bytes per sample: each stage as a 24-bit count of nanoseconds, split
// into a low uint16 and a high uint8 column, and the flags as one byte.
type chunk struct {
	lo    [numCols][recorderChunk]uint16
	hi    [numCols][recorderChunk]uint8
	flags [recorderChunk]uint8
}

// Recorder accumulates samples for one experiment run. Every recorded
// value round-trips exactly: RawSamples returns what Add was given, and
// every Dist is the one a slice of those samples gives.
//
// Samples live in columnar chunks of recorderChunk, allocated as the run
// needs them and kept across Reset, so recording never copies what is
// already recorded. A chunk stores the four stages and the flags, not
// Total: the simulator's stages tile each request's lifetime, so Total is
// their sum, and readers rebuild it as such. A sample costs 13 bytes as
// long as that holds and every stage lies in [0, 2^24-2] ns, about
// 16.8 ms. A stage outside that range is stored as escaped, and a Total
// that is not the (wrapping int64) sum of its stages sets flagTotal; both
// append the exact value to an overflow list.
// It is not safe for concurrent use; the simulation is single-threaded.
type Recorder struct {
	chunks []*chunk
	n      int
	// wide holds, for each column in recording order, the values that
	// column stores as escaped, then the Totals of the samples flagged
	// flagTotal.
	wide [numCols + 1][]int64
	// start/end bound the measurement window for throughput.
	start, end int64
	redirects  int
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	r := &Recorder{}
	backing := make([]int64, len(r.wide)*wideCap)
	for k := range r.wide {
		r.wide[k] = backing[k*wideCap : k*wideCap : (k+1)*wideCap]
	}
	return r
}

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
	r.narrow(ch, colNetIn, i, s.NetIn)
	r.narrow(ch, colQueue, i, s.Queue)
	r.narrow(ch, colDevice, i, s.Device)
	r.narrow(ch, colNetOut, i, s.NetOut)
	var flags uint8
	if s.Total != s.NetIn+s.Queue+s.Device+s.NetOut {
		flags |= flagTotal
		r.wide[wideTotal] = append(r.wide[wideTotal], s.Total)
	}
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

// narrow stores v as row i of column col of ch.
func (r *Recorder) narrow(ch *chunk, col, i int, v int64) {
	if uint64(v) >= escaped {
		r.wide[col] = append(r.wide[col], v)
		v = escaped
	}
	ch.lo[col][i] = uint16(v)
	ch.hi[col][i] = uint8(v >> 16)
}

// cursor counts, for each overflow list, the entries read so far in
// recording order.
type cursor [numCols + 1]int

// stage returns the value of row i of column col of ch.
func (r *Recorder) stage(ch *chunk, col, i int, next *cursor) int64 {
	v := int64(ch.lo[col][i]) | int64(ch.hi[col][i])<<16
	if v != escaped {
		return v
	}
	return r.pop(col, next)
}

// total returns the Total of a sample with flags f whose stages sum to
// sum.
func (r *Recorder) total(f uint8, sum int64, next *cursor) int64 {
	if f&flagTotal == 0 {
		return sum
	}
	return r.pop(wideTotal, next)
}

// pop returns the next unread entry of overflow list k.
func (r *Recorder) pop(k int, next *cursor) int64 {
	w := r.wide[k][next[k]]
	next[k]++
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
	for k := range r.wide {
		r.wide[k] = r.wide[k][:0]
	}
	r.start, r.end, r.redirects = 0, 0, 0
}

// stages lists every column; their sum is Total.
var stages = []int{colNetIn, colQueue, colDevice, colNetOut}

// dist returns the sorted distribution, over the samples whose flags
// masked by mask equal want, of the sum of the given columns, or of Total
// when cols is empty. It reads only the flags and the columns it sums.
func (r *Recorder) dist(mask, want uint8, cols ...int) Dist {
	isTotal := len(cols) == 0
	if isTotal {
		cols = stages
	}
	out := make([]int64, 0, r.n)
	var next cursor
	for c := range r.used() {
		ch := r.chunks[c]
		for i, f := range ch.flags[:r.rows(c)] {
			var v int64
			for _, col := range cols {
				v += r.stage(ch, col, i, &next)
			}
			if isTotal {
				v = r.total(f, v, &next)
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
func (r *Recorder) Reads() Dist { return r.dist(flagWrite, 0) }

// Writes returns the end-to-end latency distribution of writes.
func (r *Recorder) Writes() Dist { return r.dist(flagWrite, flagWrite) }

// All returns the end-to-end latency distribution of all requests.
func (r *Recorder) All() Dist { return r.dist(0, 0) }

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

// P50, P95, P99, P999 are the percentiles the paper reports.
func (d Dist) P50() int64  { return d.Percentile(50) }
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
	var next cursor
	for c := range r.used() {
		ch := r.chunks[c]
		for i, f := range ch.flags[:r.rows(c)] {
			s := Sample{
				NetIn:      r.stage(ch, colNetIn, i, &next),
				Queue:      r.stage(ch, colQueue, i, &next),
				Device:     r.stage(ch, colDevice, i, &next),
				NetOut:     r.stage(ch, colNetOut, i, &next),
				Write:      f&flagWrite != 0,
				Redirected: f&flagRedirected != 0,
			}
			s.Total = r.total(f, s.NetIn+s.Queue+s.Device+s.NetOut, &next)
			out = append(out, s)
		}
	}
	return out
}
