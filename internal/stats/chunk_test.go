package stats

import (
	"math/rand"
	"testing"
)

// Bit-length histograms of the stages of ycsb-c's seed-1 requests:
// lengths[i] counts the stages of bit length i+first.
var (
	netHist    = bitHist{15, []int64{5, 15577, 381182, 328319, 20839, 37206, 16491, 603, 77, 10, 7, 2, 1}}
	queueHist  = bitHist{0, []int64{5, 9, 12, 37, 70, 135, 282, 547, 996, 2095, 4053, 8097, 780617, 298, 588, 857, 953, 498, 154, 16}}
	deviceHist = bitHist{17, []int64{658835, 133972, 7512}}
)

type bitHist struct {
	first   int
	lengths []int64
}

// draw returns a value whose bit length is drawn from h, uniform among
// the values of that length.
func (h bitHist) draw(rng *rand.Rand) int64 {
	var total int64
	for _, n := range h.lengths {
		total += n
	}
	x := rng.Int63n(total)
	b := h.first
	for _, n := range h.lengths {
		if x < n {
			break
		}
		x -= n
		b++
	}
	if b == 0 {
		return 0
	}
	return 1<<(b-1) | rng.Int63n(1<<(b-1))
}

// workloadStages draws each stage from the bit-length histograms of a
// simulated run: NetIn and NetOut near 2^17 with a congestion tail to
// 2^27, Queue near 2^12, Device 2^17 to 2^19. No value dominates a
// column.
func workloadStages(rng *rand.Rand) Sample {
	return Sample{NetIn: netHist.draw(rng), Queue: queueHist.draw(rng),
		Device: deviceHist.draw(rng), NetOut: netHist.draw(rng)}
}

// dominantStages draws stages as a simulated run records them: as
// workloadStages, but Queue is exactly 3,000 ns in 96.6% of samples and
// Device exactly 95,000 ns in 75.0%, as on ycsb-c at seed 1.
func dominantStages(rng *rand.Rand) Sample {
	s := workloadStages(rng)
	if rng.Intn(1000) < 966 {
		s.Queue = 3_000
	}
	if rng.Intn(1000) < 750 {
		s.Device = 95_000
	}
	return s
}

// inRangeStages draws every stage uniformly from [0, 2^24-2].
func inRangeStages(rng *rand.Rand) Sample {
	return Sample{NetIn: rng.Int63n(1<<24 - 1), Queue: rng.Int63n(1<<24 - 1),
		Device: rng.Int63n(1<<24 - 1), NetOut: rng.Int63n(1<<24 - 1)}
}

// chunkShapes are the stage shapes the chunk benchmarks seal and decode.
var chunkShapes = []struct {
	name string
	draw func(*rand.Rand) Sample
}{
	{"workload", workloadStages},
	{"dominant", dominantStages},
	{"in-range", inRangeStages},
}

// shapedSample returns the i-th of a run's samples of the given stage
// shape: its Total is the sum of its stages, every other sample is a
// write and every fifth redirected.
func shapedSample(draw func(*rand.Rand) Sample, rng *rand.Rand, i int) Sample {
	s := draw(rng)
	s.Total, s.Write, s.Redirected = stageSum(s), i%2 == 0, i%5 == 0
	return s
}

// stagedChunk returns one full chunk of samples of the given stage
// shape, staged as Add stages them.
func stagedChunk(draw func(*rand.Rand) Sample) *[numCols][recorderChunk]uint64 {
	rng := rand.New(rand.NewSource(1))
	r, last := NewRecorder(), NewRecorder()
	for i := range recorderChunk - 1 {
		r.Add(shapedSample(draw, rng, i), int64(i))
	}
	// A full buffer seals itself, so the last row is staged apart.
	last.Add(shapedSample(draw, rng, recorderChunk-1), 0)
	cols := *r.staging
	for c := range cols {
		cols[c][recorderChunk-1] = last.staging[c][0]
	}
	return &cols
}

// sealed keeps the benchmarks' chunks live.
var sealed chunk

// BenchmarkRecorderSeal times sealing one full chunk of each shape.
func BenchmarkRecorderSeal(b *testing.B) {
	for _, shape := range chunkShapes {
		b.Run(shape.name, func(b *testing.B) {
			staged := stagedChunk(shape.draw)
			work := new([numCols][recorderChunk]uint64)
			var cols [numCols][]uint64
			for c := range cols {
				cols[c] = work[c][:]
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				// Sealing may reorder the staged rows.
				b.StopTimer()
				*work = *staged
				b.StartTimer()
				sealed = sealChunk(&cols)
			}
		})
	}
}

// BenchmarkRecorderDecode times decoding every column of one full chunk
// of each shape.
func BenchmarkRecorderDecode(b *testing.B) {
	for _, shape := range chunkShapes {
		b.Run(shape.name, func(b *testing.B) {
			staged := stagedChunk(shape.draw)
			var cols [numCols][]uint64
			for c := range cols {
				cols[c] = staged[c][:]
			}
			sealed = sealChunk(&cols)
			dst := make([]uint64, recorderChunk)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				for c := range numCols {
					sealed.column(c, dst)
				}
			}
		})
	}
}
