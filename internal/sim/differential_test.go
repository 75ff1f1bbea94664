package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// driveScript executes one byte-coded schedule against e and returns the
// observed trace: one line per executed event and per observer tick, in
// order, with timestamps. Script bytes are consumed lazily — at schedule
// time for event shape and at execution time for nested scheduling and
// Stop calls — so two engines produce identical traces if and only if
// they execute the same events in the same order at the same times. The
// script space deliberately covers the wheel's hazards: same-timestamp
// bursts (delta 0), Stop mid-run, RunUntil slicing, tick observers, and
// events filed at wheel levels 2–4, where a slot's lone event pops
// without cascading and a shared slot must cascade.
//
// The first byte picks the script's time scale. A nanosecond script
// schedules 0–47 ns ahead and ticks every few nanoseconds. A far script
// (first byte >= 128) ticks every few tens of microseconds, and its
// event bytes >= 144 schedule 1 µs–8 ms ahead, mixed with the
// nanosecond delays and same-instant bursts of the other bytes — the
// spread of the rack simulator's pending events. Far scripts keep ticks
// coarse so a run over milliseconds stays a few thousand trace lines.
func driveScript(e *Engine, script []byte) []string {
	var trace []string
	last := Time(-1)
	observe := func(kind string, at Time, id int) {
		if at < last {
			trace = append(trace, fmt.Sprintf("REWIND %s %d after %d", kind, at, last))
			return
		}
		last = at
		trace = append(trace, fmt.Sprintf("%s %d %d", kind, at, id))
	}
	pos := 0
	next := func() int {
		if pos >= len(script) {
			return -1
		}
		b := int(script[pos])
		pos++
		return b
	}
	labels := []string{"", "alpha", "beta"}
	tick := next()
	far := tick >= 128
	tickUnit := Time(1)
	if far {
		tickUnit = 16 * Microsecond
	}
	id := 0
	var schedule func(depth int)
	schedule = func(depth int) {
		b := next()
		if b < 0 {
			return
		}
		d := Time(b % 48) // 0 => same-timestamp burst
		label := labels[(b/48)%3]
		if far && b >= 144 {
			// 1–8 µs, 4–32 µs, ... 1–8 ms: wheel levels 1–4, with
			// nearby slots shared by events scheduled at different
			// instants.
			d = (d%8 + 1) * (Microsecond << (2 * (d / 8)))
		}
		myID := id
		id++
		e.AfterNamed(d, label, func(now Time) {
			observe("e", now, myID)
			c := next()
			if c < 0 {
				return
			}
			if c%11 == 0 {
				e.Stop()
			}
			if depth < 6 {
				for j := 0; j < c%3; j++ {
					schedule(depth + 1)
				}
			}
		})
	}

	if tick > 0 && tick%4 != 0 {
		e.SetTick(Time(tick%29+1)*tickUnit, func(at Time) { observe("t", at, -1) })
	}
	for i := 0; i < 4; i++ {
		schedule(0)
	}
	for {
		op := next()
		if op < 0 {
			break
		}
		switch op % 5 {
		case 0:
			e.Step()
		case 1:
			e.RunUntil(e.Now() + Time(op))
		case 2:
			e.Run()
		case 3:
			schedule(0)
		case 4:
			e.SetTick(Time(op%17+1)*tickUnit, func(at Time) { observe("t", at, -1) })
		}
	}
	e.Run() // drain
	trace = append(trace,
		fmt.Sprintf("end now=%d pending=%d processed=%d by=%v",
			e.Now(), e.Pending(), e.Processed(), e.ProcessedBy()))
	return trace
}

// diffEngines runs one script on both schedulers and reports the first
// divergence (or rewind) found, if any.
func diffEngines(script []byte) error {
	wheel := driveScript(NewEngine(), script)
	heap := driveScript(newHeapEngine(), script)
	if len(wheel) != len(heap) {
		return fmt.Errorf("trace lengths differ: wheel %d, heap %d", len(wheel), len(heap))
	}
	for i := range wheel {
		if wheel[i] != heap[i] {
			return fmt.Errorf("traces diverge at %d: wheel %q, heap %q", i, wheel[i], heap[i])
		}
		if len(wheel[i]) >= 6 && wheel[i][:6] == "REWIND" {
			return fmt.Errorf("clock rewound: %s", wheel[i])
		}
	}
	return nil
}

// Property: the time wheel and the reference binary heap execute any
// random schedule — nested scheduling, bursts, Stop, RunUntil slices,
// tick observers — as identical (time, seq, label) traces.
func TestWheelMatchesHeapProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		script := make([]byte, int(n)+16)
		r.Read(script)
		if err := diffEngines(script); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// levelProbe is a wheelQueue that counts, per push, the level the event
// is filed at, and per pop whether the earliest slot above level 0 held
// a lone event (popped in place) or a shared one (cascaded).
type levelProbe struct {
	*wheelQueue
	filed              [wheelLevels]int
	lonePops, cascades int
}

func (p *levelProbe) push(i int32) {
	if at := p.pool.nodes[i].at; at >= p.cur {
		l := 0
		if x := uint64(at ^ p.cur); x != 0 {
			l = (bits.Len64(x) - 1) / wheelBits
		}
		p.filed[l]++
	}
	p.wheelQueue.push(i)
}

func (p *levelProbe) pop() int32 {
	if p.spill.len() == 0 && p.level[0].occ == 0 {
		l, s := p.first()
		if p.pool.nodes[p.level[l].head[s]].next == nilIdx {
			p.lonePops++
		} else {
			p.cascades++
		}
	}
	return p.wheelQueue.pop()
}

// The random scripts of TestWheelMatchesHeapProperty reach the wheel
// levels the rack simulator files its events at (levels 2–4 hold its
// µs–ms timers), and exercise both ways out of them: a lone event popped
// straight from its slot and a shared slot cascaded.
func TestScriptsReachFarWheelLevels(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var filed [wheelLevels]int
	lonePops, cascades := 0, 0
	for k := 0; k < 300; k++ {
		script := make([]byte, r.Intn(256)+16)
		r.Read(script)
		e := NewEngine()
		e.pool.free = nilIdx
		probe := &levelProbe{wheelQueue: newWheelQueue(&e.pool)}
		e.q = probe
		driveScript(e, script)
		for l, n := range probe.filed {
			filed[l] += n
		}
		lonePops += probe.lonePops
		cascades += probe.cascades
	}
	t.Logf("pushes per level %v; lone pops %d, cascades %d", filed, lonePops, cascades)
	for l := 0; l <= 4; l++ {
		if filed[l] == 0 {
			t.Errorf("no event filed at wheel level %d", l)
		}
	}
	if lonePops == 0 || cascades == 0 {
		t.Errorf("lone pops %d, cascades %d: want both", lonePops, cascades)
	}
}

// Directed differential cases for the schedule shapes most likely to
// stress wheel internals: cascade boundaries (64^l multiples), events
// exactly on the cursor, and far-future RunUntil fast-forwards that
// force the spill path.
func TestWheelMatchesHeapDirected(t *testing.T) {
	cases := []struct {
		name  string
		drive func(e *Engine) []Time
	}{
		{"cascade boundaries", func(e *Engine) []Time {
			var got []Time
			rec := func(now Time) { got = append(got, now) }
			for _, at := range []Time{0, 1, 63, 64, 65, 4095, 4096, 4097, 262143, 262144, 1 << 30, 1<<30 + 1} {
				at := at
				e.At(at, func(now Time) { rec(now) })
				e.At(at, func(now Time) { rec(now) }) // tie on every boundary
			}
			e.Run()
			return got
		}},
		{"spill behind the cursor", func(e *Engine) []Time {
			var got []Time
			e.At(1_000_000, func(now Time) { got = append(got, now) })
			// Fast-forward towards the far event, then schedule between
			// the clock and the wheel cursor.
			e.RunUntil(500_000)
			for _, at := range []Time{500_001, 600_000, 999_999, 1_000_000} {
				at := at
				e.At(at, func(now Time) { got = append(got, now) })
			}
			e.Run()
			return got
		}},
		{"reschedule at now", func(e *Engine) []Time {
			var got []Time
			n := 0
			var again EventFunc
			again = func(now Time) {
				got = append(got, now)
				n++
				if n < 50 {
					e.After(Time(n%2), again) // alternate 0-delay and 1ns
				}
			}
			e.At(10, again)
			e.Run()
			return got
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.drive(NewEngine())
			h := tc.drive(newHeapEngine())
			if len(w) != len(h) {
				t.Fatalf("wheel ran %d events, heap %d", len(w), len(h))
			}
			for i := range w {
				if w[i] != h[i] {
					t.Fatalf("event %d: wheel at %d, heap at %d", i, w[i], h[i])
				}
			}
			for i := 1; i < len(w); i++ {
				if w[i] < w[i-1] {
					t.Fatalf("wheel times not monotone: %v", w)
				}
			}
		})
	}
}

// FuzzEngineTrace fuzzes the byte-coded schedule language over both
// schedulers: any divergence between the wheel and the reference heap,
// or any clock rewind, is a crash.
func FuzzEngineTrace(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 0, 0, 0, 0, 11, 2})
	f.Add([]byte{13, 47, 47, 47, 1, 200, 3, 3, 3, 2})
	f.Add([]byte{255, 64, 65, 63, 0, 22, 4, 1, 1, 2, 0, 0})
	// Far scripts, µs–ms timers beside same-instant bursts. Each one
	// fails if a shared slot above level 1 pops its head instead of
	// cascading.
	f.Add([]byte{210, 150, 23, 37, 245, 12, 175, 31, 191, 232, 49})
	f.Add([]byte{166, 138, 168, 175, 94, 57, 94, 190, 188, 156, 220})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			t.Skip("script too large")
		}
		if err := diffEngines(script); err != nil {
			t.Fatal(err)
		}
	})
}
