package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func rec(lat ...int64) *Recorder {
	r := NewRecorder()
	for i, l := range lat {
		r.Add(Sample{Total: l}, int64(i))
	}
	return r
}

func TestPercentileNearestRank(t *testing.T) {
	d := rec(10, 20, 30, 40, 50, 60, 70, 80, 90, 100).All()
	cases := []struct {
		p    float64
		want int64
	}{
		{50, 50}, {10, 10}, {100, 100}, {99, 100}, {95, 100}, {90, 90}, {1, 10},
	}
	for _, c := range cases {
		if got := d.Percentile(c.p); got != c.want {
			t.Errorf("P%.1f = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	d := NewRecorder().All()
	if d.Percentile(99) != 0 {
		t.Fatal("empty percentile != 0")
	}
	if d.Mean() != 0 || d.Max() != 0 || d.Min() != 0 {
		t.Fatal("empty summary stats != 0")
	}
}

func TestPercentileBounds(t *testing.T) {
	d := rec(5, 15, 25).All()
	if d.Percentile(-1) != 5 {
		t.Fatal("p<=0 should return min")
	}
	if d.Percentile(200) != 25 {
		t.Fatal("p>=100 should return max")
	}
}

func TestMeanMaxMin(t *testing.T) {
	d := rec(1, 2, 3, 4).All()
	if d.Mean() != 2.5 {
		t.Fatalf("mean = %f, want 2.5", d.Mean())
	}
	if d.Max() != 4 || d.Min() != 1 {
		t.Fatalf("max/min = %d/%d", d.Max(), d.Min())
	}
}

func TestReadWriteSplit(t *testing.T) {
	r := NewRecorder()
	r.Add(Sample{Total: 100, Write: false}, 0)
	r.Add(Sample{Total: 200, Write: true}, 1)
	r.Add(Sample{Total: 300, Write: false}, 2)
	if r.Reads().Len() != 2 {
		t.Fatalf("reads = %d, want 2", r.Reads().Len())
	}
	if r.Writes().Len() != 1 {
		t.Fatalf("writes = %d, want 1", r.Writes().Len())
	}
	if r.Writes().Max() != 200 {
		t.Fatalf("write max = %d, want 200", r.Writes().Max())
	}
	if r.All().Len() != 3 {
		t.Fatalf("all = %d, want 3", r.All().Len())
	}
}

func TestStorageBreakdown(t *testing.T) {
	s := Sample{Total: 1000, NetIn: 100, Queue: 200, Device: 300, NetOut: 400}
	if s.Storage() != 500 {
		t.Fatalf("storage = %d, want 500", s.Storage())
	}
	r := NewRecorder()
	r.Add(s, 0)
	if r.ReadStorage().Max() != 500 {
		t.Fatalf("read storage = %d, want 500", r.ReadStorage().Max())
	}
	if r.WriteStorage().Len() != 0 {
		t.Fatal("write storage should be empty for a read")
	}
}

func TestThroughput(t *testing.T) {
	r := NewRecorder()
	// 11 samples over 1 second: 10 intervals => 10 IOPS.
	for i := 0; i <= 10; i++ {
		r.Add(Sample{Total: 1}, int64(i)*1e8)
	}
	if got := r.Throughput(); got < 9.9 || got > 10.1 {
		t.Fatalf("throughput = %f, want ~10", got)
	}
}

func TestThroughputDegenerate(t *testing.T) {
	r := NewRecorder()
	if r.Throughput() != 0 {
		t.Fatal("empty throughput != 0")
	}
	r.Add(Sample{}, 5)
	if r.Throughput() != 0 {
		t.Fatal("single-sample throughput != 0")
	}
}

func TestFormatters(t *testing.T) {
	if Ms(2_500_000) != "2.50ms" {
		t.Fatalf("Ms = %q", Ms(2_500_000))
	}
	if Us(2_500) != "2.5us" {
		t.Fatalf("Us = %q", Us(2_500))
	}
}

func TestNormalizeAndSpeedup(t *testing.T) {
	if Speedup(100, 50) != 2 {
		t.Fatal("speedup")
	}
	if Speedup(100, 0) != 0 {
		t.Fatal("speedup zero")
	}
}

// Property: percentiles are monotonically non-decreasing in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(500)
		rc := NewRecorder()
		for i := 0; i < n; i++ {
			rc.Add(Sample{Total: int64(r.Intn(1_000_000))}, int64(i))
		}
		d := rc.All()
		prev := int64(-1)
		for p := 1.0; p <= 100; p += 0.5 {
			v := d.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: P100 equals max, P~0 equals min, and every percentile is a
// member of the sample set (nearest-rank definition).
func TestPercentileMembershipProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		rc := NewRecorder()
		set := map[int64]bool{}
		for i, v := range raw {
			rc.Add(Sample{Total: int64(v)}, int64(i))
			set[int64(v)] = true
		}
		d := rc.All()
		vals := make([]int64, 0, len(raw))
		for _, v := range raw {
			vals = append(vals, int64(v))
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		if d.Percentile(100) != vals[len(vals)-1] {
			return false
		}
		for p := 5.0; p <= 100; p += 10 {
			if !set[d.Percentile(p)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// edges are values at and beyond the ends of common column widths, 24,
// 32 and 64 bits: no int64 may be lost.
var edges = []int64{math.MinInt64, -1 << 32, -1, 0, 1, 1<<24 - 2, 1<<24 - 1, 1 << 24,
	math.MaxUint32 - 1, math.MaxUint32, math.MaxUint32 + 1, math.MaxInt64}

// stageSum is the wrapping int64 sum of the stages of s: a Total equal to
// it is rebuilt rather than stored.
func stageSum(s Sample) int64 { return s.NetIn + s.Queue + s.Device + s.NetOut }

// sumWraps reports whether the stages of s sum beyond the int64 range.
func sumWraps(s Sample) bool {
	sum := new(big.Int)
	for _, v := range []int64{s.NetIn, s.Queue, s.Device, s.NetOut} {
		sum.Add(sum, big.NewInt(v))
	}
	return !sum.IsInt64()
}

// modelReaders pairs each Recorder distribution with how a slice of
// samples defines it.
var modelReaders = []struct {
	name string
	dist func(*Recorder) Dist
	keep func(Sample) bool
	get  func(Sample) int64
}{
	{"All", (*Recorder).All, func(Sample) bool { return true }, total},
	{"Reads", (*Recorder).Reads, isRead, total},
	{"Writes", (*Recorder).Writes, isWrite, total},
	{"ReadStorage", (*Recorder).ReadStorage, isRead, Sample.Storage},
	{"WriteStorage", (*Recorder).WriteStorage, isWrite, Sample.Storage},
}

func isRead(s Sample) bool  { return !s.Write }
func isWrite(s Sample) bool { return s.Write }
func total(s Sample) int64  { return s.Total }

// sliceModelMismatch describes how r differs from the slice model, the
// samples it was given in order, of which the first finished at start and
// the last at end; "" means Len, RawSamples, Throughput and
// every distribution's length, mean, extremes and percentiles agree
// exactly.
func sliceModelMismatch(r *Recorder, model []Sample, start, end int64) string {
	if r.Len() != len(model) {
		return fmt.Sprintf("Len %d, model %d", r.Len(), len(model))
	}
	if got := RawSamples(r); !slices.Equal(got, model) {
		i := 0
		for got[i] == model[i] {
			i++
		}
		return fmt.Sprintf("RawSamples[%d] = %+v, model %+v", i, got[i], model[i])
	}
	wantIOPS := 0.0
	if dur := end - start; dur > 0 && len(model) > 1 {
		wantIOPS = float64(len(model)-1) / (float64(dur) / 1e9)
	}
	if got := r.Throughput(); got != wantIOPS {
		return fmt.Sprintf("Throughput %v, model %v", got, wantIOPS)
	}
	for _, c := range modelReaders {
		var want []int64
		for _, s := range model {
			if c.keep(s) {
				want = append(want, c.get(s))
			}
		}
		slices.Sort(want)
		got, wantDist := c.dist(r), Dist{want}
		if got.Len() != len(want) || got.Mean() != wantDist.Mean() ||
			got.Min() != wantDist.Min() || got.Max() != wantDist.Max() {
			return fmt.Sprintf("%s: len/mean/min/max %d/%v/%d/%d, model %d/%v/%d/%d", c.name,
				got.Len(), got.Mean(), got.Min(), got.Max(),
				len(want), wantDist.Mean(), wantDist.Min(), wantDist.Max())
		}
		for _, p := range []float64{0, 1, 50, 95, 99, 99.9, 100} {
			if got.Percentile(p) != wantDist.Percentile(p) {
				return fmt.Sprintf("%s: P%v %d, model %d", c.name, p, got.Percentile(p), wantDist.Percentile(p))
			}
		}
	}
	return ""
}

// Property: a Recorder answers exactly as one sample slice does while
// it stages samples, after Seal, and after Adds that follow a Seal. Each
// seed records six full chunks, one per regime in a random order, and a
// partial one, seals, then adds up to two chunks more and seals again.
// The regimes are: stages across the edges with three Totals in four the
// (wrapping) sum of their stages; all zero, so each stage column packs
// to width 0; negative, so each packs to width 64; below 2^12 but one in
// 200 exactly 2^12, so each stage column packs to width 12 with
// exceptions at its boundary; Queue and Device dominated by one value,
// the others below 2^11 but one in 50 of them 2^20, so each is split with
// exceptions among its rest rows; and Queue 7 in the chunk's first
// candidateRows rows and 3,000 after, so the candidate scan misses the
// most frequent value, beside a Device of one value in every row. Each
// seed must draw Totals rebuilt from sums that wrap int64 and Totals
// stored apart, seal stage columns of widths 0, 12 and 64, split and
// unsplit ones, a split one with exceptions and one with no rest rows,
// and one whose value in most rows the candidate scan missed, so every
// path is taken.
func TestRecorderChunksMatchSliceModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		field := func(scale int) int64 {
			switch rng.Intn(16) {
			case 0:
				return edges[rng.Intn(len(edges))]
			case 1:
				return rng.Int63() - rng.Int63()
			default:
				return int64(rng.Intn(scale))
			}
		}
		boundary := func() int64 {
			if rng.Intn(200) == 0 {
				return 1 << 12
			}
			return rng.Int63n(1 << 12)
		}
		// dominated returns v, but in one row in others a value below
		// 2^11, or 2^20 in one such row in 50.
		dominated := func(v int64, others int) int64 {
			switch {
			case rng.Intn(others) != 0:
				return v
			case rng.Intn(50) == 0:
				return 1 << 20
			}
			return rng.Int63n(1 << 11)
		}
		regimes := []func(s *Sample, row int){
			func(s *Sample, _ int) {
				*s = Sample{NetIn: field(1e4), Queue: field(1e4), Device: field(2e7), NetOut: field(1e4)}
				if rng.Intn(4) == 0 {
					s.Total = field(1e6)
					return
				}
				s.Total = stageSum(*s)
			},
			func(s *Sample, _ int) { *s = Sample{} },
			func(s *Sample, _ int) {
				*s = Sample{NetIn: -1 - rng.Int63n(1e4), Queue: -rng.Int63(), Device: math.MinInt64, NetOut: -1}
				s.Total = stageSum(*s)
			},
			func(s *Sample, _ int) {
				*s = Sample{NetIn: boundary(), Queue: boundary(), Device: boundary(), NetOut: boundary()}
				s.Total = stageSum(*s)
			},
			func(s *Sample, _ int) {
				*s = Sample{NetIn: field(1e4), Queue: dominated(3_000, 30), Device: dominated(95_000, 4), NetOut: field(1e4)}
				s.Total = stageSum(*s)
			},
			func(s *Sample, row int) {
				*s = Sample{NetIn: field(1e4), Queue: 3_000, Device: 95_000, NetOut: field(1e4)}
				if row < candidateRows {
					s.Queue = 7
				}
				s.Total = stageSum(*s)
			},
		}
		r := NewRecorder()
		var model []Sample
		var start, last int64
		wrapped, apart := 0, 0
		record := func(regime, n int) {
			for range n {
				var s Sample
				regimes[regime](&s, len(model)%recorderChunk)
				s.Write, s.Redirected = rng.Intn(3) == 0, rng.Intn(5) == 0
				if s.Total != stageSum(s) {
					apart++
				} else if sumWraps(s) {
					wrapped++
				}
				last += int64(rng.Intn(1e4))
				if len(model) == 0 {
					start = last
				}
				r.Add(s, last)
				model = append(model, s)
			}
		}
		check := func(when string) bool {
			if msg := sliceModelMismatch(r, model, start, last); msg != "" {
				t.Logf("seed %d, %d samples %s: %s", seed, len(model), when, msg)
				return false
			}
			return true
		}
		for _, regime := range rng.Perm(len(regimes)) {
			record(regime, recorderChunk)
		}
		record(0, 1+rng.Intn(recorderChunk-1))
		if !check("staged") {
			return false
		}
		r.Seal()
		if !check("sealed") {
			return false
		}
		record(0, 1+rng.Intn(2*recorderChunk))
		if !check("added after a seal") {
			return false
		}
		r.Seal()
		if !check("sealed twice") {
			return false
		}
		widths := map[uint8]bool{}
		var split, unsplit, splitExc, allDominant, missed bool
		col := make([]uint64, recorderChunk)
		for _, ch := range r.chunks {
			for _, c := range stages {
				l := ch.cols[c]
				widths[l.width] = true
				split, unsplit = split || l.split, unsplit || !l.split
				splitExc = splitExc || l.split && l.exc > 0
				allDominant = allDominant || l.split && l.rest == 0
				ch.column(c, col[:ch.n])
				// The candidate scan missed a value held by most rows.
				mode := modeCount(col[:ch.n])
				dom, _, _, _ := candidate(col[:ch.n])
				missed = missed || mode > ch.n/2 && count(col[:ch.n], dom) < mode
			}
		}
		if wrapped == 0 || apart == 0 || !widths[0] || !widths[12] || !widths[64] {
			t.Logf("seed %d drew %d Totals from wrapping sums and %d apart from their sums, and sealed stage widths %v",
				seed, wrapped, apart, widths)
			return false
		}
		if !split || !unsplit || !splitExc || !allDominant || !missed {
			t.Logf("seed %d sealed split %v, unsplit %v, split with exceptions %v, split with no rest rows %v, candidate missed %v",
				seed, split, unsplit, splitExc, allDominant, missed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4}); err != nil {
		t.Error(err)
	}
}

// count returns how many values of col equal v.
func count(col []uint64, v uint64) int {
	n := 0
	for _, u := range col {
		if u == v {
			n++
		}
	}
	return n
}

// modeCount returns how many times the most frequent value of col occurs.
func modeCount(col []uint64) int {
	s := slices.Clone(col)
	slices.Sort(s)
	most := 0
	for i := 0; i < len(s); {
		j := i + 1
		for j < len(s) && s[j] == s[i] {
			j++
		}
		most = max(most, j-i)
		i = j
	}
	return most
}

// maxFuzzSamples bounds one fuzz input's expansion to a little over three
// chunks.
const maxFuzzSamples = 3*recorderChunk + 100

// decodeSamples reads fuzz input as records, and returns their samples
// and, in order, the sample indices before which the recorder is sealed.
// A record's head byte holds Write (bit 0), Redirected (bit 1), sum (bit
// 2), seal (bit 3) and k (bits 4-7): the sample repeats 2^k times, so
// short inputs cross chunk boundaries, and when seal is set the recorder
// is sealed before the first repeat. Its fields follow: Total, unless sum
// is set and Total is the wrapping sum of the stages, then NetIn to
// NetOut. Each is a tag byte t and its payload: t%4 = 0 is the value t/4,
// 1 is edges[t/4 % len(edges)], 2 a little-endian uint32 of the next 4
// bytes and 3 an int64 of the next 8. A truncated record ends the input.
func decodeSamples(data []byte) (out []Sample, seals []int) {
	for len(data) > 0 && len(out) < maxFuzzSamples {
		head := data[0]
		data = data[1:]
		s := Sample{Write: head&1 != 0, Redirected: head&2 != 0}
		fields := []*int64{&s.Total, &s.NetIn, &s.Queue, &s.Device, &s.NetOut}
		if head&4 != 0 {
			fields = fields[1:]
		}
		for _, field := range fields {
			if len(data) == 0 {
				return out, seals
			}
			t := data[0]
			data = data[1:]
			switch t % 4 {
			case 0:
				*field = int64(t / 4)
			case 1:
				*field = edges[int(t/4)%len(edges)]
			case 2:
				if len(data) < 4 {
					return out, seals
				}
				*field = int64(binary.LittleEndian.Uint32(data))
				data = data[4:]
			case 3:
				if len(data) < 8 {
					return out, seals
				}
				*field = int64(binary.LittleEndian.Uint64(data))
				data = data[8:]
			}
		}
		if head&4 != 0 {
			s.Total = stageSum(s)
		}
		if head&8 != 0 {
			seals = append(seals, len(out))
		}
		for range min(1<<(head>>4), maxFuzzSamples-len(out)) {
			out = append(out, s)
		}
	}
	return out, seals
}

// renderMismatch renders d as a CDF, width columns wide, and describes
// the first bar wider than that; "" means none.
func renderMismatch(d Dist, width int) string {
	for _, line := range strings.Split(d.PlotCDF("cdf", width), "\n") {
		if bar := strings.Count(line, "#"); bar > width {
			return fmt.Sprintf("CDF bar of %d in %d columns: %q", bar, width, line)
		}
	}
	return ""
}

// FuzzRecorderRoundTrip: byte-decoded samples, recorded one per
// nanosecond with the seals the input asks for, give a Recorder that
// answers exactly as their slice does, before and after a final Seal,
// and every distribution renders.
func FuzzRecorderRoundTrip(f *testing.F) {
	le32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	le64 := func(v int64) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(v)) }
	edge := func(i byte) byte { return 0x01 | i<<2 }
	f.Add([]byte{})
	// One write: 40, MinInt64, 2^24-2, 2^24-1, MinInt64.
	f.Add(slices.Concat([]byte{0x01, 40 << 2, edge(0), 0x02}, le32(1<<24-2), []byte{0x02},
		le32(1<<24-1), []byte{0x03}, le64(math.MinInt64)))
	// A redirected read 2^24-1, MaxInt64, -5, 0, -1 2^15 times, across
	// two chunk boundaries (its Queue and NetOut columns pack to width 64),
	// then a read 1, 7, 2^24, 0, 0. Neither Total is the sum of its
	// stages.
	f.Add(slices.Concat([]byte{0xF2, edge(6), edge(11), 0x03}, le64(-5), []byte{0x00, edge(2)},
		[]byte{0x00, 1 << 2, 0x02}, le32(7), []byte{edge(7), 0x00, 0x00}))
	// Totals that are the sums of their stages, around one stored apart:
	// a read with stages MaxInt64, 1, 2^24-1, 0 (the sum wraps) filling
	// chunk 0; a write 5 with stages 1, 1, 1, 1; a redirected read with
	// stages 2^24-2, -1, 2^24, 3 2^15 times, across two chunk boundaries;
	// then a write with stages MinInt64, MinInt64, 0, 0 (the sum wraps to
	// 0) 8 times.
	f.Add([]byte{0xE4, edge(11), edge(4), edge(6), 0x00,
		0x01, 5 << 2, 1 << 2, 1 << 2, 1 << 2, 1 << 2,
		0xF6, edge(5), edge(2), edge(7), 3 << 2,
		0x35, edge(0), edge(0), 0x00, 0x00})
	// Exceptions at a width's boundary: reads with stages 1, 0, 0, 0, then
	// 2, 0, 0, 0 and 3, 0, 0, 0 2^12 times each, 4 = 2^2, 0, 0, 0 16 times,
	// and 3, 0, 0, 0 2^12 times again, so chunk 0 packs NetIn, which no
	// value dominates, to width 2 with 16 exceptions of exactly 2^2 in
	// rows from 12288; then a seal, which seals the 16 reads left over as
	// a chunk, and a read with stages MinInt64, MaxInt64, 0, 0 (the sum
	// is -1).
	f.Add([]byte{0xC4, 1 << 2, 0x00, 0x00, 0x00,
		0xC4, 2 << 2, 0x00, 0x00, 0x00,
		0xC4, 3 << 2, 0x00, 0x00, 0x00,
		0x44, 4 << 2, 0x00, 0x00, 0x00,
		0xC4, 3 << 2, 0x00, 0x00, 0x00,
		0x0C, edge(0), edge(11), 0x00, 0x00})
	u32 := func(v uint32) []byte { return append([]byte{0x02}, le32(v)...) }
	// A split column and unsplit ones: reads with stages 0, 3000, 95000,
	// 1 2^13 times, then 0, 1000, 100000, 1 and 0, 2000, 95000, 1 2^12
	// times each, so chunk 0 splits Queue by 3000 and Device by 95000
	// and packs NetIn and NetOut unsplit.
	f.Add(slices.Concat([]byte{0xD4, 0x00}, u32(3000), u32(95000), []byte{1 << 2},
		[]byte{0xC4, 0x00}, u32(1000), u32(100000), []byte{1 << 2},
		[]byte{0xC4, 0x00}, u32(2000), u32(95000), []byte{1 << 2}))
	// A split column with exceptions among its rest rows: reads with
	// stages 0, 3000, 0, 0, then 0, 1000, 0, 0 and 0, 2000, 0, 0 2^12
	// times each, 0, 2^24, 0, 0 16 times and 0, 3000, 0, 0 2^11 times, so
	// Queue is split by 3000 and its rest rows pack to width 11 with 16
	// exceptions, from rest row 8192.
	f.Add(slices.Concat([]byte{0xC4, 0x00}, u32(3000), []byte{0x00, 0x00},
		[]byte{0xC4, 0x00}, u32(1000), []byte{0x00, 0x00},
		[]byte{0xC4, 0x00}, u32(2000), []byte{0x00, 0x00},
		[]byte{0x44, 0x00, edge(7), 0x00, 0x00},
		[]byte{0xB4, 0x00}, u32(3000), []byte{0x00, 0x00}))
	// Columns whose every row is the dominant value: reads with stages
	// 0, 3000, 95000, 0 filling chunk 0, so Queue and Device split with
	// no rest rows, then a read 1, 2, 3, 4.
	f.Add(slices.Concat([]byte{0xE4, 0x00}, u32(3000), u32(95000), []byte{0x00},
		[]byte{0x04, 1 << 2, 2 << 2, 3 << 2, 4 << 2}))
	// A dominant value the candidate scan misses: reads with stages
	// 0, 7, 0, 0 2^6 times, 0, 3000, 0, 0 2^11 times and 0, 7, 0, 0 2^10
	// times, so Queue's first rows name 7, which it is split by, although
	// 3000 is more frequent.
	f.Add(slices.Concat([]byte{0x64, 0x00, 7 << 2, 0x00, 0x00},
		[]byte{0xB4, 0x00}, u32(3000), []byte{0x00, 0x00},
		[]byte{0xA4, 0x00, 7 << 2, 0x00, 0x00}))
	// Exceptions that need every bit above their width: reads with stages
	// 1, 0, 0, 0, then 2, 0, 0, 0 and 3, 0, 0, 0, 2^8 times each, then a
	// read MinInt64, 0, 0, MinInt64, so NetIn and NetOut pack to width 15,
	// the narrowest that leaves an exception at most maxHigh bits above
	// it, each with one exception of 49 high bits.
	f.Add([]byte{0x84, 1 << 2, 0x00, 0x00, 0x00,
		0x84, 2 << 2, 0x00, 0x00, 0x00,
		0x84, 3 << 2, 0x00, 0x00, 0x00,
		0x04, edge(0), 0x00, 0x00, edge(0)})
	f.Fuzz(func(t *testing.T, data []byte) {
		model, seals := decodeSamples(data)
		r := NewRecorder()
		for i, s := range model {
			for len(seals) > 0 && seals[0] == i {
				r.Seal()
				seals = seals[1:]
			}
			r.Add(s, int64(i))
		}
		for _, when := range []string{"recorded", "sealed"} {
			if msg := sliceModelMismatch(r, model, 0, int64(len(model)-1)); msg != "" {
				t.Fatalf("%d samples %s: %s", len(model), when, msg)
			}
			r.Seal()
		}
		for _, c := range modelReaders {
			if msg := renderMismatch(c.dist(r), 40); msg != "" {
				t.Fatalf("%s: %s", c.name, msg)
			}
		}
	})
}

// TestRecorderFootprint gates what recording costs: the live heap a
// sealed Recorder grows by per sample, and one allocation per sealed
// chunk besides the staging buffer, which the first Add allocates and
// Seal frees. Each case records four and a half chunks, so that Seal
// seals a partial one, of stages that sum to their Totals, in three
// shapes (see chunk_test.go):
//   - in-range: stages uniform in [0, 2^24-2], at most 13.5 bytes per
//     sample;
//   - workload: stages drawn from the bit-length histograms of a
//     simulated run, at most 10 bytes per sample;
//   - dominant: as workload, but with Queue and Device exactly one value
//     in 96.6% and 75.0% of samples, as a simulated run records them, at
//     most 7 bytes per sample.
//
// Each shape is recorded as drawn and with one NetIn per 1,000 samples
// of 256.5 ms, the largest latency the benchmark workloads record.
func TestRecorderFootprint(t *testing.T) {
	const n = 4*recorderChunk + recorderChunk/2
	const chunks = 5
	for _, tc := range []struct {
		name     string
		draw     func(*rand.Rand) Sample
		escapes  bool
		maxBytes float64
	}{
		{"in-range", inRangeStages, false, 13.5},
		{"one-escape-per-1000", inRangeStages, true, 13.5},
		{"workload", workloadStages, false, 10},
		{"workload-one-escape-per-1000", workloadStages, true, 10},
		{"dominant", dominantStages, false, 7},
		{"dominant-one-escape-per-1000", dominantStages, true, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			samples := make([]Sample, n)
			for i := range samples {
				s := shapedSample(tc.draw, rng, i)
				if tc.escapes && i%1000 == 0 {
					s.NetIn = 256_500_000
					s.Total = stageSum(s)
				}
				samples[i] = s
			}
			r := NewRecorder()
			// Size the chunk index up front, so the counts below are the chunks'.
			r.chunks = make([]chunk, 0, chunks)
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var before, staged, recorded, after runtime.MemStats
			runtime.GC()
			runtime.GC() // the second cycle frees what sync.Pools kept through the first
			runtime.ReadMemStats(&before)
			r.Add(samples[0], 0)
			runtime.ReadMemStats(&staged)
			for i, s := range samples[1:] {
				r.Add(s, int64(i+1))
			}
			r.Seal()
			runtime.ReadMemStats(&recorded)
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(r)
			runtime.KeepAlive(samples)
			perSample := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(r.Len())
			mallocs := recorded.Mallocs - staged.Mallocs
			excs := 0
			for _, ch := range r.chunks {
				for _, l := range ch.cols {
					excs += int(l.exc)
				}
			}
			t.Logf("%d samples, %d exceptions: %.3f heap bytes per sample, %d allocations for %d chunks",
				r.Len(), excs, perSample, mallocs, len(r.chunks))
			if perSample > tc.maxBytes {
				t.Errorf("live heap grew %.3f bytes per sample, want at most %v", perSample, tc.maxBytes)
			}
			if len(r.chunks) != chunks || mallocs != chunks {
				t.Errorf("recording %d chunks made %d allocations, want %d chunks, one allocation each",
					len(r.chunks), mallocs, chunks)
			}
		})
	}
}

// TestRecorderDecodeScratch: a reader decodes into scratch sized to the
// largest sealed chunk, not to a full one, and sizes its distribution to
// the samples it keeps. So Reads on 1,000 sealed samples, 500 of them
// reads, allocates six decoded columns of 8,000 bytes, the
// distribution's 4,000 and at most 2 KiB besides.
func TestRecorderDecodeScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewRecorder()
	for i := range 1000 {
		r.Add(shapedSample(dominantStages, rng, i), int64(i))
	}
	r.Seal()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	reads := r.Reads()
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("Reads on %d sealed samples (%d reads) allocated %d bytes", r.Len(), reads.Len(), allocated)
	if limit := uint64(6*8*r.Len() + 8*reads.Len() + 2<<10); allocated > limit {
		t.Errorf("Reads on %d sealed samples (%d reads) allocated %d bytes, want at most %d",
			r.Len(), reads.Len(), allocated, limit)
	}
}
