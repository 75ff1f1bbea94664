package sim

import "math/bits"

// wheelQueue is the production event queue: a hierarchical time wheel
// (calendar queue) over pooled node indices. Push and pop are O(1)
// amortized regardless of how many events are pending, where the binary
// heap paid O(log n) pointer-chasing comparisons per operation — the
// difference that matters at rack-scale event counts.
//
// Layout. Level l covers the virtual-time axis in slots of 64^l
// nanoseconds, 64 slots per level; 11 levels of 6 bits cover the full
// non-negative int64 range. An event lands at the lowest level whose slot
// width still separates it from the wheel cursor: the level of the
// highest 6-bit group in which its time differs from cur. Events in a
// level-0 slot therefore all share one exact timestamp, and each slot
// keeps a FIFO list, so draining slots in index order yields exact
// (time, insertion-seq) order — the determinism contract the replay
// tests pin.
//
// Advancing. cur trails the earliest pending event. An event at level
// l >= 1 agrees with cur above its 6-bit group l and exceeds it in that
// group, so when level 0 is empty, the earliest occupied slot of the
// lowest occupied level holds the earliest pending events: lower levels
// are empty, the level's later slots are later, and higher levels are
// later still. If that slot holds a single event, it is the global
// minimum and no other event shares its time, so pop returns it (and
// peekTime reads its time) without refiling it, and (time, seq) order
// stays exact. Most of the simulator's pending events are alone in their
// slot, so most are filed once and popped where they landed. A slot of
// two or more events is cascaded instead: cur jumps to the slot's window
// start and the slot's list is redistributed to lower levels in FIFO
// order (each node strictly descends, so cascades terminate). Per-level
// occupancy bitmaps make "earliest occupied slot" a single
// trailing-zeros scan, so advancing across a large empty gap touches no
// empty slots.
//
// The spill heap. cur can legitimately end up ahead of the engine clock:
// peeking across a gap cascades cur toward the next event, and a
// RunUntil deadline can sit below that. An event then scheduled between
// the clock and cur ("behind the cursor") cannot be placed in the wheel,
// whose slot arithmetic is relative to cur. Such events go to a small
// reference-heap spill queue instead. Every spill event is strictly
// earlier than every wheel event (spill holds t < cur, the wheel t >=
// cur, and cur is monotone), so the spill drains first and ordering
// stays exact. Steady-state runs never touch it.
type wheelQueue struct {
	pool *nodePool
	// cur is the wheel's time floor: every wheel-resident event has
	// t >= cur. It advances to each popped event's time and to cascaded
	// window starts, never past the earliest pending event.
	cur Time
	// n counts wheel-resident events (the spill queue keeps its own).
	n     int
	spill heapQueue
	level [wheelLevels]wheelLevel
}

const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 11 // ceil(64 / wheelBits): the full Time range
)

type wheelLevel struct {
	// occ is the occupancy bitmap: bit s set iff slot s has events.
	// head/tail of an empty slot are stale and must not be read.
	occ  uint64
	head [wheelSlots]int32
	tail [wheelSlots]int32
}

func newWheelQueue(pool *nodePool) *wheelQueue {
	return &wheelQueue{pool: pool, spill: heapQueue{pool: pool}}
}

func (w *wheelQueue) len() int { return w.n + w.spill.len() }

func (w *wheelQueue) push(i int32) {
	if w.pool.nodes[i].at < w.cur {
		w.spill.push(i)
		return
	}
	w.place(i)
	w.n++
}

// place files a node into the level/slot addressed by its time relative
// to cur. Requires nodes[i].at >= cur.
func (w *wheelQueue) place(i int32) {
	n := &w.pool.nodes[i]
	n.next = nilIdx
	t := n.at
	l := 0
	if x := uint64(t ^ w.cur); x != 0 {
		l = (bits.Len64(x) - 1) / wheelBits
	}
	s := int(t>>(l*wheelBits)) & wheelMask
	lv := &w.level[l]
	if lv.occ&(1<<s) == 0 {
		lv.occ |= 1 << s
		lv.head[s] = i
	} else {
		w.pool.nodes[lv.tail[s]].next = i
	}
	lv.tail[s] = i
}

// first returns the lowest occupied level and its earliest occupied
// slot, which holds the earliest pending wheel event. Callers guarantee
// w.n > 0.
func (w *wheelQueue) first() (int, int) {
	for l := range w.level {
		if b := w.level[l].occ; b != 0 {
			return l, bits.TrailingZeros64(b)
		}
	}
	panic("sim: wheel occupancy lost events")
}

// cascade redistributes slot s of level l >= 1, the earliest occupied
// slot of the lowest occupied level, into lower levels, advancing cur to
// that slot's window start.
func (w *wheelQueue) cascade(l, s int) {
	lv := &w.level[l]
	i := lv.head[s]
	lv.occ &^= 1 << s
	shift := uint(l * wheelBits)
	// Zero time groups 0..l-1 of cur and set group l to s: the start of
	// the cascaded slot's window. Every event in the slot is >= this
	// start, and lower levels are empty, so cur stays <= the earliest
	// pending event.
	w.cur = (w.cur &^ (Time(1)<<(shift+wheelBits) - 1)) | Time(s)<<shift
	for i != nilIdx {
		next := w.pool.nodes[i].next
		w.place(i)
		i = next
	}
}

func (w *wheelQueue) peekTime() Time {
	if w.spill.len() > 0 {
		return w.spill.peekTime()
	}
	for {
		l, s := w.first()
		n := &w.pool.nodes[w.level[l].head[s]]
		// A level-0 slot holds one timestamp; above level 0 only a lone
		// event's time is the minimum without refiling.
		if l == 0 || n.next == nilIdx {
			return n.at
		}
		w.cascade(l, s)
	}
}

func (w *wheelQueue) pop() int32 {
	if w.spill.len() > 0 {
		return w.spill.pop()
	}
	for {
		l, s := w.first()
		lv := &w.level[l]
		i := lv.head[s]
		switch next := w.pool.nodes[i].next; {
		case next == nilIdx:
			// The slot's only event: the earliest pending one at any
			// level (see Advancing).
			lv.occ &^= 1 << s
		case l == 0:
			lv.head[s] = next
		default:
			w.cascade(l, s)
			continue
		}
		w.n--
		w.cur = w.pool.nodes[i].at
		return i
	}
}
