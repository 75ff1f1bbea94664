// Package sim provides a deterministic discrete-event simulation engine.
//
// All RackBlox components run on virtual time measured in nanoseconds.
// Events execute in (time, insertion-order) order, so a simulation with a
// fixed seed is fully reproducible across runs and platforms.
package sim

import "fmt"

// Time is virtual simulation time in nanoseconds.
type Time = int64

// Common durations in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Handler is an event's callback, executed at its scheduled virtual time.
// Hot paths schedule pooled, pointer-typed event records that implement
// it, so firing an event allocates nothing; cold paths pass an EventFunc.
type Handler interface{ Fire(now Time) }

// EventFunc is a callback executed at its scheduled virtual time. A func
// value is pointer-shaped, so converting one to Handler does not allocate.
type EventFunc func(now Time)

// Fire calls f.
func (f EventFunc) Fire(now Time) { f(now) }

// nilIdx is the nil value for node-pool indices.
const nilIdx int32 = -1

// node is one pooled scheduled event. Nodes live in the engine's pool and
// are addressed by index, never by pointer, so neither queue
// implementation boxes them into interfaces (the old container/heap core
// paid two allocations per event for exactly that) and the backing array
// can grow without invalidating references.
type node struct {
	at  Time
	seq uint64
	h   Handler
	// next links the node into a wheel slot's FIFO list while queued and
	// into the pool's free list while free.
	next  int32
	label Label
}

// nodePool recycles event nodes through an intrusive free list. put zeroes
// the handler so a drained node does not retain it — the retention leak
// the old eventHeap.Pop had — and the pool needs no sync.Pool (the engine
// is single-threaded), so it stays deterministic and race-clean.
type nodePool struct {
	nodes []node
	free  int32
}

func (p *nodePool) get() int32 {
	if p.free != nilIdx {
		i := p.free
		p.free = p.nodes[i].next
		return i
	}
	p.nodes = append(p.nodes, node{})
	return int32(len(p.nodes) - 1)
}

func (p *nodePool) put(i int32) {
	n := &p.nodes[i]
	n.at, n.seq, n.h, n.label = 0, 0, nil, Label{}
	n.next = p.free
	p.free = i
}

// live counts pooled nodes still holding a handler — zero once every
// scheduled event has executed (leak accounting for tests).
func (p *nodePool) live() int {
	n := 0
	for i := range p.nodes {
		if p.nodes[i].h != nil {
			n++
		}
	}
	return n
}

// eventQueue is the pending-event ordering structure: pop yields node
// indices in exact (time, insertion-seq) order. Two implementations exist:
// the production hierarchical time wheel (wheelQueue) and the original
// binary heap (heapQueue), kept as the reference scheduler for
// differential tests.
type eventQueue interface {
	push(i int32)
	pop() int32
	// peekTime returns the earliest pending event's time; only valid when
	// len() > 0. It may reorganize the queue internally but never changes
	// the observable schedule.
	peekTime() Time
	len() int
}

// Engine is a single-threaded discrete-event scheduler.
// The zero value is ready to use.
type Engine struct {
	now  Time
	seq  uint64
	pool nodePool
	q    eventQueue
	// useHeap selects the reference binary-heap scheduler instead of the
	// time wheel; set only by tests, before the first event is scheduled.
	useHeap bool
	// processed counts executed events, useful as a runaway guard in tests.
	processed uint64
	// labelCounts counts executed events per Label id, so the per-Step
	// accounting is a slice increment; Schedule grows it to cover every
	// label it sees. Id 0 is "other", the bucket for unlabeled events.
	labelCounts []uint64
	stopped     bool

	// Observer tick: fn fires at every multiple of tickInterval that
	// falls before the next event executes. It is NOT an event — it is
	// invoked between events without touching the queue, the sequence
	// counter, or the processed count, so enabling it cannot perturb
	// the simulation. The callback must only observe (read state,
	// record samples): scheduling events or drawing randomness from it
	// would break that guarantee.
	tickInterval Time
	nextTick     Time
	tickFn       func(at Time)
}

// NewEngine returns an engine with time zero and no pending events.
func NewEngine() *Engine { return &Engine{} }

// newHeapEngine returns an engine running the reference binary-heap
// scheduler, for differential tests against the time wheel.
func newHeapEngine() *Engine { return &Engine{useHeap: true} }

// ensure lazily wires the queue and pool so the zero value stays usable.
func (e *Engine) ensure() {
	if e.q != nil {
		return
	}
	e.pool.free = nilIdx
	if e.useHeap {
		e.q = &heapQueue{pool: &e.pool}
	} else {
		e.q = newWheelQueue(&e.pool)
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of scheduled events not yet executed.
func (e *Engine) Pending() int {
	if e.q == nil {
		return 0
	}
	return e.q.len()
}

// Processed reports the number of executed events so far.
func (e *Engine) Processed() uint64 { return e.processed }

// ProcessedBy returns a copy of the per-handler event counts. Events
// scheduled without a label (At/After) count under "other".
func (e *Engine) ProcessedBy() map[string]uint64 {
	out := make(map[string]uint64)
	countsByName(e.labelCounts, out)
	return out
}

// Schedule runs h at absolute time t under label l: the engine's one
// scheduling primitive, which every other form wraps. Scheduling in the
// past is a programming error and panics: it would silently reorder
// causality.
func (e *Engine) Schedule(t Time, l Label, h Handler) {
	if h == nil {
		panic("sim: nil event handler")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.ensure()
	for int(l.id) >= len(e.labelCounts) {
		e.labelCounts = append(e.labelCounts, 0)
	}
	e.seq++
	i := e.pool.get()
	n := &e.pool.nodes[i]
	n.at, n.seq, n.h, n.label = t, e.seq, h, l
	e.q.push(i)
}

// ScheduleAfter is Schedule d nanoseconds from now. Negative d panics.
func (e *Engine) ScheduleAfter(d Time, l Label, h Handler) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.Schedule(e.now+d, l, h)
}

// At schedules fn to run at absolute time t, counted under "other".
func (e *Engine) At(t Time, fn EventFunc) { e.AtNamed(t, "", fn) }

// AtNamed is At with a handler label given by name, resolved through the
// label registry on every call. Simulation packages declare a Label with
// NewLabel and call Schedule instead; this form serves callers outside
// them, such as benchmarks.
func (e *Engine) AtNamed(t Time, label string, fn EventFunc) {
	if fn == nil {
		panic("sim: nil event function")
	}
	e.Schedule(t, labelFor(label), fn)
}

// After schedules fn to run d nanoseconds from now. Negative d panics.
func (e *Engine) After(d Time, fn EventFunc) { e.AfterNamed(d, "", fn) }

// AfterNamed is After with a handler label given by name (see AtNamed).
func (e *Engine) AfterNamed(d Time, label string, fn EventFunc) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.AtNamed(e.now+d, label, fn)
}

// SetTick installs (or, with interval <= 0 or nil fn, removes) the
// observer tick: fn(boundary) fires at every multiple of interval that
// falls strictly after the install instant, interleaved between events
// without being one. Boundaries are anchored to multiples of interval on
// the virtual-time axis — NOT to the install time — so two observers
// installed at different moments sample the same instants and a
// time-series CSV's rows land on round timestamps. See the field comment
// on Engine for the observer-only contract.
func (e *Engine) SetTick(interval Time, fn func(at Time)) {
	if interval <= 0 || fn == nil {
		e.tickInterval, e.tickFn = 0, nil
		return
	}
	e.tickInterval = interval
	e.tickFn = fn
	e.nextTick = (e.now/interval + 1) * interval
}

// fireTicks runs the observer tick for every boundary <= upto. The
// clock visibly advances to each boundary so the observer reads
// time-dependent state (utilizations) consistently, then the caller
// advances it past upto; boundaries are <= the next event's time, so
// causality is preserved. The clock never moves backwards: boundaries
// the clock has already passed are skipped, not replayed.
func (e *Engine) fireTicks(upto Time) {
	if e.tickFn == nil {
		return
	}
	if e.nextTick < e.now {
		// Defensive: a stale boundary behind the clock would rewind
		// e.now (the PR 7 clock-regression bug). Skip forward to the
		// first boundary at or after now instead.
		e.nextTick = ((e.now + e.tickInterval - 1) / e.tickInterval) * e.tickInterval
	}
	for e.nextTick <= upto {
		e.now = e.nextTick
		e.tickFn(e.nextTick)
		e.nextTick += e.tickInterval
	}
}

// Stop makes Run and RunUntil return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the single earliest pending event and returns true, or
// returns false if no events remain.
func (e *Engine) Step() bool {
	if e.q == nil || e.q.len() == 0 {
		return false
	}
	i := e.q.pop()
	n := &e.pool.nodes[i]
	at, label, h := n.at, n.label, n.h
	// Recycle before running: the freed slot holds no reference to h, and
	// the handler may immediately schedule new events into this node.
	e.pool.put(i)
	e.fireTicks(at)
	e.now = at
	e.processed++
	e.labelCounts[label.id]++
	h.Fire(e.now)
	return true
}

// Run executes events until none remain or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to deadline. Events scheduled beyond the deadline stay pending.
// If Stop is called mid-run the clock stays at the last executed event:
// forcing it to the deadline with events still pending below it would
// make the next Step rewind the clock and replay stale tick boundaries.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped && e.q != nil && e.q.len() > 0 && e.q.peekTime() <= deadline {
		e.Step()
	}
	if e.stopped {
		return
	}
	e.fireTicks(deadline)
	if e.now < deadline {
		e.now = deadline
	}
}
