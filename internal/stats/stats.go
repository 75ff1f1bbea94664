// Package stats collects latency samples and computes the summary
// statistics reported throughout the RackBlox evaluation: percentiles
// (P50..P99.9), means, throughput, and per-stage latency breakdowns.
// A Recorder keeps every sample of a run in sealed chunks whose columns
// are bit-packed at the widths each chunk's own values need, with the
// rows that hold a column's most frequent value marked in a bitmap
// instead: about 6 to 8 bytes per simulated request. Every value it
// records round-trips exactly, so each percentile is computed from all
// the samples rather than estimated.
package stats

import (
	"fmt"
	"slices"
)

// Sample is one completed I/O request with its per-stage latencies,
// all in nanoseconds of virtual time. The simulator's stages are
// non-negative and tile the request's lifetime, so they sum to Total. A
// Recorder stores any Sample exactly; it spends no bits on a Total that
// is that sum, and on each stage about as many bits as the stage's
// values in its chunk need.
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

// recorderChunk is how many samples a Recorder stages before it seals
// them into a chunk.
const recorderChunk = 16 << 10

// Recorder accumulates samples for one experiment run. Every recorded
// value round-trips exactly: RawSamples returns what Add was given, and
// every Dist is the one a slice of those samples gives.
//
// Add stages samples as plain uint64 columns in one buffer of
// recorderChunk rows, allocated by the first Add. A full buffer is
// sealed into a chunk, one exact-size allocation, and the buffer is
// reused; Seal seals a partial buffer and frees it. The columns are the
// four stages; Total less their (wrapping int64) sum, zigzag-encoded, so
// that a simulated request's Total costs nothing; and the two flags, at
// most 2 bits. Each column is stored in whichever layout takes the
// fewest bits: bit-packed at one width, or, when one value fills most of
// its rows, a bitmap of the rows holding that value followed by the
// other rows bit-packed. A value too wide for the packed width is an
// exception, kept as its row and its bits above the width.
// It is not safe for concurrent use; the simulation is single-threaded.
type Recorder struct {
	chunks []chunk
	// staging holds the staged samples, the first staged rows of each
	// column; nil before the first Add and after Seal.
	staging *[numCols][recorderChunk]uint64
	staged  int
	n       int
	// byFlags counts the samples with each value of the flags column,
	// so that a distribution is sized to the samples it keeps.
	byFlags [flagRedirected << 1]int
	// start/end bound the measurement window for throughput.
	start, end int64
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
	if r.staging == nil {
		r.staging = new([numCols][recorderChunk]uint64)
	}
	b, i := r.staging, r.staged
	b[colNetIn][i] = uint64(s.NetIn)
	b[colQueue][i] = uint64(s.Queue)
	b[colDevice][i] = uint64(s.Device)
	b[colNetOut][i] = uint64(s.NetOut)
	b[colTotal][i] = zigzag(s.Total - (s.NetIn + s.Queue + s.Device + s.NetOut))
	var flags uint64
	if s.Write {
		flags |= flagWrite
	}
	if s.Redirected {
		flags |= flagRedirected
	}
	b[colFlags][i] = flags
	r.byFlags[flags]++
	r.n++
	if r.staged++; r.staged == recorderChunk {
		r.seal()
	}
}

// Seal packs the staged samples into a chunk of their own and frees the
// staging buffer, so that the recorder holds only what its samples need.
// Call it when a run has finished recording; a later Add stages anew.
func (r *Recorder) Seal() {
	if r.staged > 0 {
		r.seal()
	}
	r.staging = nil
}

// seal packs the staged samples into a new chunk.
func (r *Recorder) seal() {
	r.chunks = append(r.chunks, sealChunk(r.stagedColumns()))
	r.staged = 0
}

// stagedColumns returns the staged rows of every column.
func (r *Recorder) stagedColumns() *[numCols][]uint64 {
	var cols [numCols][]uint64
	for c := range cols {
		cols[c] = r.staging[c][:r.staged]
	}
	return &cols
}

// zigzag maps small negative and positive v alike to small values.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// each calls f with the rows of every chunk in recording order, the
// staged ones last: cols[c] holds them for each column c in need, decoded
// into a buffer that f must not keep.
func (r *Recorder) each(need []int, f func(cols *[numCols][]uint64)) {
	rows := 0
	for i := range r.chunks {
		rows = max(rows, r.chunks[i].n)
	}
	var buf, cols [numCols][]uint64
	for i := range r.chunks {
		ch := &r.chunks[i]
		for _, c := range need {
			if buf[c] == nil {
				buf[c] = make([]uint64, rows)
			}
			cols[c] = buf[c][:ch.n]
			ch.column(c, cols[c])
		}
		f(&cols)
	}
	if r.staged > 0 {
		f(r.stagedColumns())
	}
}

// Len returns the number of recorded samples.
func (r *Recorder) Len() int { return r.n }

// stages lists the stage columns; Total is their sum.
var stages = []int{colNetIn, colQueue, colDevice, colNetOut}

// dist returns the sorted distribution, over the samples whose flags
// masked by mask equal want, of the sum of the given stage columns, or of
// Total when cols is empty. It decodes only the flags and the columns it
// sums.
func (r *Recorder) dist(mask, want uint64, cols ...int) Dist {
	isTotal := len(cols) == 0
	if isTotal {
		cols = stages
	}
	need := append([]int{colFlags}, cols...)
	if isTotal {
		need = append(need, colTotal)
	}
	kept := 0
	for f, n := range r.byFlags {
		if uint64(f)&mask == want {
			kept += n
		}
	}
	out := make([]int64, 0, kept)
	r.each(need, func(c *[numCols][]uint64) {
		for i, f := range c[colFlags] {
			if f&mask != want {
				continue
			}
			var v int64
			for _, col := range cols {
				v += int64(c[col][i])
			}
			if isTotal {
				v += unzigzag(c[colTotal][i])
			}
			out = append(out, v)
		}
	})
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

// Ms formats a nanosecond latency as milliseconds with two decimals,
// the unit used in the paper's figures.
func Ms(ns int64) string { return fmt.Sprintf("%.2fms", float64(ns)/1e6) }

// Us formats a nanosecond latency as microseconds.
func Us(ns int64) string { return fmt.Sprintf("%.1fus", float64(ns)/1e3) }

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
	r.each([]int{colNetIn, colQueue, colDevice, colNetOut, colTotal, colFlags}, func(c *[numCols][]uint64) {
		for i, f := range c[colFlags] {
			s := Sample{
				NetIn:      int64(c[colNetIn][i]),
				Queue:      int64(c[colQueue][i]),
				Device:     int64(c[colDevice][i]),
				NetOut:     int64(c[colNetOut][i]),
				Write:      f&flagWrite != 0,
				Redirected: f&flagRedirected != 0,
			}
			s.Total = s.NetIn + s.Queue + s.Device + s.NetOut + unzigzag(c[colTotal][i])
			out = append(out, s)
		}
	})
	return out
}
