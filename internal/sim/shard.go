package sim

import (
	"cmp"
	"fmt"
	"slices"
)

// Sharded simulation: one Engine per rack plus a coordinator shard,
// synchronized with conservative lookahead.
//
// The rack model's asymmetry — intra-rack events are dense and cheap,
// cross-rack interactions pay at least the spine's propagation latency —
// is exactly the structure a conservative parallel discrete-event
// simulation needs: a message sent while executing an event at time t
// cannot take effect on another shard before t+lookahead, so every shard
// may safely run all events in the window [T, T+lookahead) in parallel,
// where T is the earliest pending event anywhere (the synchronous
// Chandy–Misra–Bryant variant). Cross-shard events travel through
// per-edge mailboxes and are merged into the destination engine in
// canonical (time, source shard, send sequence) order at each window
// barrier, so the executed schedule — and therefore every observable
// result — is byte-identical whether the shards run on one goroutine
// (RunSequential) or as tasks of the worker pool (Run, see shardrun.go,
// the one file in the tree allowed to start goroutines).
//
// Shard 0 is the coordinator, meant for the spine/cluster layer (shared
// bandwidth metering, the scenario driver); shards 1..n are the racks.
// During a window a shard's events may touch only that shard's state;
// every cross-shard interaction goes through Post. Nothing enforces the
// ownership discipline at runtime — the rackvet goroutinediscipline
// analyzer pins where concurrency may be introduced, and the
// sharded-vs-sequential differential tests are the behavioral gate.

// mailItem is one cross-shard event waiting in an edge mailbox.
type mailItem struct {
	at    Time
	src   int
	seq   uint64 // per-edge send sequence, assigned in Post-call order
	label Label
	h     Handler
}

// ShardGroup owns a coordinator engine plus one engine per rack and runs
// them under conservative-lookahead synchronization.
type ShardGroup struct {
	lookahead Time
	engines   []*Engine
	// mail[src][dst] buffers cross-shard events: written only by src's
	// executing window (sequentially within a shard), drained into dst's
	// engine at barriers. The per-edge split is what makes parallel
	// windows write-race-free without locks.
	mail    [][][]mailItem
	sendSeq [][]uint64
	// merge is the reusable delivery scratch buffer (kept across rounds
	// so steady-state delivery does not allocate).
	merge []mailItem
	// end is the window Run is executing, and runShard, bound once so
	// that a window allocates nothing, runs shard i up to it.
	end      Time
	runShard func(i int)
}

// NewShardGroup returns a group of racks+1 engines: shard 0 is the
// coordinator (spine), shards 1..racks the per-rack engines. lookahead
// is the minimum cross-shard event delay (CrossRackLatency in the rack
// topology); it is clamped to at least 1ns — a zero-lookahead edge would
// admit same-instant cross-shard causality, which cannot be windowed.
func NewShardGroup(racks int, lookahead Time) *ShardGroup {
	if racks < 0 {
		panic("sim: negative rack count")
	}
	if lookahead < Nanosecond {
		lookahead = Nanosecond
	}
	n := racks + 1
	g := &ShardGroup{
		lookahead: lookahead,
		engines:   make([]*Engine, n),
		mail:      make([][][]mailItem, n),
		sendSeq:   make([][]uint64, n),
	}
	for i := range g.engines {
		g.engines[i] = NewEngine()
		g.mail[i] = make([][]mailItem, n)
		g.sendSeq[i] = make([]uint64, n)
	}
	g.runShard = func(i int) { g.engines[i].RunUntil(g.end) }
	return g
}

// Shards returns the total shard count (racks + the coordinator).
func (g *ShardGroup) Shards() int { return len(g.engines) }

// Lookahead returns the group's conservative lookahead window.
func (g *ShardGroup) Lookahead() Time { return g.lookahead }

// Shard returns shard i's engine; 0 is the coordinator, 1..n the racks.
func (g *ShardGroup) Shard(i int) *Engine { return g.engines[i] }

// Post schedules h under label l on shard dst at absolute time at, from
// code running on shard src. The lookahead contract is enforced: at must
// be at least src's current time plus the group lookahead, because the
// destination may already have advanced that far into the window.
// Delivery happens at the next window barrier; events from all sources
// headed for one shard are merged in canonical (time, source shard, send
// sequence) order, so the destination's schedule does not depend on
// which goroutine ran first.
func (g *ShardGroup) Post(src, dst int, at Time, l Label, h Handler) {
	if h == nil {
		panic("sim: nil cross-shard event handler")
	}
	if src == dst {
		panic(fmt.Sprintf("sim: cross-shard Post from shard %d to itself; schedule locally", src))
	}
	if min := g.engines[src].Now() + g.lookahead; at < min {
		panic(fmt.Sprintf(
			"sim: cross-shard send at %d violates lookahead: shard %d is at %d, earliest legal delivery %d",
			at, src, g.engines[src].Now(), min))
	}
	g.sendSeq[src][dst]++
	g.mail[src][dst] = append(g.mail[src][dst],
		mailItem{at: at, src: src, seq: g.sendSeq[src][dst], label: l, h: h})
}

// Send is Post with the label given by name and fn as the handler, for
// callers outside the simulation packages (see Engine.AtNamed).
func (g *ShardGroup) Send(src, dst int, at Time, label string, fn EventFunc) {
	if fn == nil {
		panic("sim: nil cross-shard event function")
	}
	g.Post(src, dst, at, labelFor(label), fn)
}

// deliver drains every edge mailbox into its destination engine, merging
// per destination in (time, source shard, send sequence) order. Called
// only at barriers, with no window in flight.
func (g *ShardGroup) deliver() {
	for dst := range g.engines {
		g.merge = g.merge[:0]
		for src := range g.engines {
			if len(g.mail[src][dst]) == 0 {
				continue
			}
			g.merge = append(g.merge, g.mail[src][dst]...)
			g.mail[src][dst] = g.mail[src][dst][:0]
		}
		if len(g.merge) == 0 {
			continue
		}
		m := g.merge
		slices.SortFunc(m, compareMail)
		eng := g.engines[dst]
		for i := range m {
			eng.Schedule(m[i].at, m[i].label, m[i].h)
			m[i].h = nil // do not retain the handler in the scratch buffer
		}
	}
}

// compareMail orders mail by (time, source shard, send sequence), a total
// order within one destination: each edge numbers its mail uniquely.
func compareMail(a, b mailItem) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.src, b.src); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// mailPending counts undelivered cross-shard events.
func (g *ShardGroup) mailPending() int {
	n := 0
	for src := range g.mail {
		for dst := range g.mail[src] {
			n += len(g.mail[src][dst])
		}
	}
	return n
}

// earliest returns the earliest pending event time across all shards
// (mailboxes must already be drained), or false when the group is idle.
func (g *ShardGroup) earliest() (Time, bool) {
	var min Time
	found := false
	for _, e := range g.engines {
		if t, ok := e.nextEventTime(); ok && (!found || t < min) {
			min, found = t, true
		}
	}
	return min, found
}

// stoppedAny reports whether any shard's engine was stopped during the
// last window (Engine.Stop inside an event handler): the group run ends
// at that round's barrier, leaving later events pending — the sharded
// analogue of Stop's single-engine semantics.
func (g *ShardGroup) stoppedAny() bool {
	for _, e := range g.engines {
		if e.stopped {
			return true
		}
	}
	return false
}

// window computes the next conservative window, delivering mail first.
// It returns the window's inclusive end (all events with time <= end are
// safe to run on every shard) and false when no work remains.
func (g *ShardGroup) window() (Time, bool) {
	g.deliver()
	t, ok := g.earliest()
	if !ok {
		return 0, false
	}
	return t + g.lookahead - 1, true
}

// seqWindow runs one window on the calling goroutine, shards stepped in
// index order. Window execution order across shards is unobservable —
// shards share no state and interact only through the mailboxes drained
// at barriers — which is exactly why the parallel runner can run the
// shards as pool tasks without changing a single result byte.
func (g *ShardGroup) seqWindow(end Time) {
	for _, e := range g.engines {
		e.RunUntil(end)
	}
}

// runLoop drives windows until the group idles or a shard stops; run
// executes one window (sequentially or on the worker pool).
func (g *ShardGroup) runLoop(run func(end Time)) {
	for {
		end, ok := g.window()
		if !ok {
			return
		}
		run(end)
		if g.stoppedAny() {
			return
		}
	}
}

// runLoopUntil is runLoop bounded by a deadline: windows are clamped to
// it, and once no work remains at or before the deadline every shard's
// clock is advanced to it (firing observer ticks), like Engine.RunUntil.
func (g *ShardGroup) runLoopUntil(deadline Time, run func(end Time)) {
	for {
		end, ok := g.window()
		if !ok || end > deadline {
			break
		}
		run(end)
		if g.stoppedAny() {
			return
		}
	}
	if t, ok := g.earliest(); ok && t <= deadline {
		// A window straddles the deadline: run just the events at or
		// before it. Mail sent by those events lands beyond the deadline
		// (the lookahead bound) and stays queued for the next call.
		run(deadline)
		if g.stoppedAny() {
			return
		}
	}
	run(deadline)
}

// RunSequential drives every shard on the calling goroutine: the same
// windows, barriers, and mailbox merges as the parallel Run. It is the
// differential oracle — Run must be byte-identical to it — and the mode
// of choice when the topology has one rack (nothing to parallelize).
func (g *ShardGroup) RunSequential() { g.runLoop(g.seqWindow) }

// RunUntilSequential is RunSequential bounded by a deadline.
func (g *ShardGroup) RunUntilSequential(deadline Time) { g.runLoopUntil(deadline, g.seqWindow) }

// Now returns the group's conservative global clock: the minimum of the
// shard clocks (every shard has advanced at least this far).
func (g *ShardGroup) Now() Time {
	min := g.engines[0].Now()
	for _, e := range g.engines[1:] {
		if t := e.Now(); t < min {
			min = t
		}
	}
	return min
}

// Pending sums scheduled-but-unexecuted events across shards, plus
// cross-shard events still waiting in mailboxes.
func (g *ShardGroup) Pending() int {
	n := g.mailPending()
	for _, e := range g.engines {
		n += e.Pending()
	}
	return n
}

// Processed sums executed events across shards.
func (g *ShardGroup) Processed() uint64 {
	var n uint64
	for _, e := range g.engines {
		n += e.Processed()
	}
	return n
}

// ProcessedBy merges the per-handler event counts of every shard into a
// freshly allocated map. Like Engine.ProcessedBy, the result is a
// defensive copy: the caller may mutate it freely without corrupting any
// shard's interned-label counters.
func (g *ShardGroup) ProcessedBy() map[string]uint64 {
	out := make(map[string]uint64)
	for _, e := range g.engines {
		countsByName(e.labelCounts, out)
	}
	return out
}

// SetTick installs a per-shard observer tick: fn(shard, boundary) fires
// for every shard at every multiple of interval, between that shard's
// events, under Engine.SetTick's observer-only contract. Boundaries are
// anchored to the virtual-time axis, so samples from different shards
// align and merge deterministically by (boundary, shard).
func (g *ShardGroup) SetTick(interval Time, fn func(shard int, at Time)) {
	for i, e := range g.engines {
		if interval <= 0 || fn == nil {
			e.SetTick(0, nil)
			continue
		}
		i := i
		e.SetTick(interval, func(at Time) { fn(i, at) })
	}
}

// nextEventTime returns the earliest pending event's time on e.
func (e *Engine) nextEventTime() (Time, bool) {
	if e.q == nil || e.q.len() == 0 {
		return 0, false
	}
	return e.q.peekTime(), true
}
