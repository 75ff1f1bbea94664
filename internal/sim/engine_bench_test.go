package sim

import (
	"fmt"
	"math"
	"testing"
	"time"

	"rackblox/internal/walltime"
)

// lcg is a tiny deterministic generator for benchmark offsets — cheaper
// and more reproducible than math/rand in a timed loop.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l)
}

var benchEngines = []struct {
	name string
	mk   func() *Engine
}{
	{"wheel", NewEngine},
	{"heap", newHeapEngine},
}

// benchSizes are the pending-event populations of the engine
// benchmarks. The rack simulator keeps 22–840 events pending on average
// (ycsb-c to ec-repair), so the two smallest draw offsets shaped like
// its own (simOffsets); the larger ones, sized for rack-scale soaks,
// draw uniform offsets of up to about 1 ms.
var benchSizes = []int{64, 1_000, 10_000, 100_000, 1_000_000, 10_000_000}

func sizeName(n int) string {
	switch {
	case n >= 1_000_000:
		return fmt.Sprintf("%dM", n/1_000_000)
	case n >= 1_000:
		return fmt.Sprintf("%dk", n/1_000)
	}
	return fmt.Sprint(n)
}

// simOffsets cycles through the schedule offsets of the small benchmark
// populations: one in eight is 0, a same-instant event, and the rest are
// log-uniform from 1 µs to 1 ms, the span most of the simulator's timers
// and packet hops fall in (wheel levels 1–3).
var simOffsets = func() []Time {
	r := lcg(12345)
	tab := make([]Time, 4096)
	for i := range tab {
		if r.next()%8 == 0 {
			continue
		}
		u := float64(r.next()>>11) / (1 << 53)
		tab[i] = Time(float64(Microsecond) * math.Pow(1000, u))
	}
	return tab
}()

// offsetGen returns a deterministic generator of schedule offsets for a
// population of n pending events (see benchSizes).
func offsetGen(n int) func() Time {
	if n < 10_000 {
		i := 0
		return func() Time {
			i++
			return simOffsets[i%len(simOffsets)]
		}
	}
	r := lcg(12345)
	return func() Time { return Time(r.next()>>44) + 1 }
}

// BenchmarkEngineSchedule measures steady-state schedule+fire churn with
// a fixed population of pending events: each iteration pushes one event
// at a pseudo-random future offset and pops the earliest. This is the
// shape the rack simulation drives — the queue stays large while events
// flow through it — and where the heap's O(log n) comparisons and
// per-event boxing dominated.
func BenchmarkEngineSchedule(b *testing.B) {
	for _, eng := range benchEngines {
		for _, size := range benchSizes {
			b.Run(fmt.Sprintf("%s/pending=%s", eng.name, sizeName(size)), func(b *testing.B) {
				e := eng.mk()
				fn := func(Time) {}
				offset := offsetGen(size)
				for i := 0; i < size; i++ {
					e.After(offset(), fn)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.After(offset(), fn)
					e.Step()
				}
			})
		}
	}
}

// BenchmarkEngineFire measures pure drain throughput: schedule size
// events up front, then run the queue dry. Reported per drain. A small
// queue drains faster than the benchmark timer stops and starts, so each
// untimed fill refills a batch of engines (4096 events in all) that the
// next ops drain one by one.
func BenchmarkEngineFire(b *testing.B) {
	for _, eng := range benchEngines {
		for _, size := range benchSizes {
			b.Run(fmt.Sprintf("%s/n=%s", eng.name, sizeName(size)), func(b *testing.B) {
				fn := func(Time) {}
				batch := make([]*Engine, max(1, 4096/size))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					k := i % len(batch)
					if k == 0 {
						b.StopTimer()
						offset := offsetGen(size)
						for j := range batch {
							if batch[j] == nil {
								batch[j] = eng.mk()
							}
							for n := 0; n < size; n++ {
								batch[j].After(offset(), fn)
							}
						}
						b.StartTimer()
					}
					batch[k].Run()
				}
				b.ReportMetric(float64(size), "events/op")
			})
		}
	}
}

// TestEngineSteadyStateAllocs is the CI allocation gate: once the pool,
// wheel, and label table are warm, scheduling and draining events must
// allocate NOTHING in the engine (the caller's closures are its own
// business; here one closure is reused). An alloc-count regression in
// the hot path fails this deterministically, unlike a timing threshold.
func TestEngineSteadyStateAllocs(t *testing.T) {
	for _, eng := range benchEngines {
		t.Run(eng.name, func(t *testing.T) {
			e := eng.mk()
			fn := func(Time) {}
			for i := 0; i < 2000; i++ {
				e.AfterNamed(Time(i%97), "grant", fn)
			}
			e.Run()
			avg := testing.AllocsPerRun(50, func() {
				for i := 0; i < 200; i++ {
					e.AfterNamed(Time(i%97), "grant", fn)
				}
				e.Run()
			})
			if avg != 0 {
				t.Errorf("steady-state schedule+drain allocates %.1f objects per 200 events, want 0", avg)
			}
			// The typed path: a pooled record scheduled under a declared
			// label, re-armed from its own Fire, as the datapath's hop
			// records are.
			rec := &countingRecord{eng: e}
			for i := 0; i < 2000; i++ {
				e.ScheduleAfter(Time(i%97), labelAllocGate, rec)
			}
			e.Run()
			avg = testing.AllocsPerRun(50, func() {
				rec.rearm = 100
				for i := 0; i < 100; i++ {
					e.ScheduleAfter(Time(i%97), labelAllocGate, rec)
				}
				e.Run()
			})
			if avg != 0 {
				t.Errorf("steady-state Handler schedule+drain allocates %.1f objects per 200 events, want 0", avg)
			}
			// µs–ms offsets beside same-instant events: most events are
			// alone in a slot above level 0 and pop from where they
			// landed.
			offset := offsetGen(64)
			for i := 0; i < 2000; i++ {
				e.AfterNamed(offset(), "grant", fn)
			}
			e.Run()
			avg = testing.AllocsPerRun(50, func() {
				for i := 0; i < 200; i++ {
					e.AfterNamed(offset(), "grant", fn)
				}
				e.Run()
			})
			if avg != 0 {
				t.Errorf("steady-state schedule+drain at µs offsets allocates %.1f objects per 200 events, want 0", avg)
			}
			if got := e.ProcessedBy()["alloc.gate"]; got != 2000+50*200+200 {
				t.Errorf("alloc.gate counted %d events, want %d", got, 2000+50*200+200)
			}
		})
	}
}

var labelAllocGate = NewLabel("alloc.gate")

// countingRecord is a Handler that reschedules itself rearm more times.
type countingRecord struct {
	eng   *Engine
	rearm int
}

func (c *countingRecord) Fire(Time) {
	if c.rearm > 0 {
		c.rearm--
		c.eng.ScheduleAfter(1, labelAllocGate, c)
	}
}

// TestEngineSoak10Racks10MOps is the rack-scale soak from ISSUE 7: ten
// rack-shaped event populations — each a serial Resource with a fan of
// self-rescheduling operation chains — pushing ten million events
// through one engine. It must complete in seconds (generous wall-clock
// ceiling so slow CI hosts do not flake) with every event accounted for
// per rack label.
func TestEngineSoak10Racks10MOps(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: skipped with -short")
	}
	const (
		racks         = 10
		chainsPerRack = 100
		totalOps      = 10_000_000
	)
	e := NewEngine()
	resources := make([]*Resource, racks)
	labels := make([]string, racks)
	for i := range resources {
		resources[i] = NewResource(e)
		labels[i] = fmt.Sprintf("rack%d", i)
	}
	// Each chain runs an exact share of the budget so the whole soak is
	// precisely totalOps events.
	const opsPerChain = totalOps / (racks * chainsPerRack)
	ops := 0
	r := lcg(99)
	chain := func(rack int) EventFunc {
		left := opsPerChain
		var fn EventFunc
		fn = func(now Time) {
			ops++
			left--
			if left == 0 {
				return
			}
			// Occupy the rack's device briefly, then reschedule after a
			// pseudo-random think time — the simulator's I/O heartbeat.
			resources[rack].Block(now + Time(r.next()%64))
			e.AfterNamed(Time(r.next()%4096)+1, labels[rack], fn)
		}
		return fn
	}
	for rack := 0; rack < racks; rack++ {
		for c := 0; c < chainsPerRack; c++ {
			e.AfterNamed(Time(r.next()%4096), labels[rack], chain(rack))
		}
	}
	// Host-clock soak timing goes through the audited walltime boundary:
	// the measurement bounds how fast the simulator executes and never
	// re-enters simulation state (see internal/walltime).
	start := walltime.Start()
	e.Run()
	elapsed := walltime.Elapsed(start)
	if ops != totalOps {
		t.Fatalf("ran %d ops, want %d", ops, totalOps)
	}
	if e.Processed() != totalOps {
		t.Fatalf("engine processed %d events, want %d", e.Processed(), totalOps)
	}
	var byRack uint64
	for _, c := range e.ProcessedBy() {
		byRack += c
	}
	if byRack != totalOps {
		t.Fatalf("per-rack counters sum to %d, want %d", byRack, totalOps)
	}
	if n := e.pool.live(); n != 0 {
		t.Fatalf("%d pool nodes still hold closures after the soak", n)
	}
	const ceiling = 60 * time.Second
	if elapsed > ceiling {
		t.Fatalf("soak took %v, over the %v ceiling", elapsed, ceiling)
	}
	t.Logf("10 racks x 10M ops in %v (%.1fM events/sec)", elapsed,
		float64(totalOps)/elapsed.Seconds()/1e6)
}
