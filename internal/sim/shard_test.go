package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// buildRackModel populates g with a miniature sharded rack workload:
// every rack shard runs self-rescheduling per-I/O chains against its own
// serial Resource (device channel), and a deterministic fraction of
// operations crosses to the coordinator shard — the spine — which
// occupies its own Resource (link serialization) and forwards the
// operation to a destination rack. All randomness is a per-shard lcg, so
// each shard's behavior is a pure function of its own event sequence.
// The returned traces record, per shard, every executed operation as
// "(time, id)" lines — the byte-level schedule the parallel runner must
// reproduce.
func buildRackModel(g *ShardGroup, opsPerRack int) *[][]string {
	n := g.Shards()
	traces := make([][]string, n)
	devices := make([]*Resource, n)
	rngs := make([]lcg, n)
	for i := 0; i < n; i++ {
		devices[i] = NewResource(g.Shard(i))
		rngs[i] = lcg(1000 + i)
	}
	// step builds the event for one hop of chain id on the given shard.
	// The shard-ownership discipline the real core must follow holds here
	// too: an executing event touches only its own shard's state (rng,
	// device, trace); everything a migrating chain carries across the
	// boundary (id, budget) is captured by value.
	var step func(shard, id, budget int) EventFunc
	step = func(shard, id, budget int) EventFunc {
		return func(now Time) {
			traces[shard] = append(traces[shard], fmt.Sprintf("%d %d", now, id))
			if budget == 0 {
				return
			}
			r := &rngs[shard]
			if shard == 0 {
				// Spine: serialize the transfer on the shared link, then
				// hand the chain to a destination rack.
				dst := 1 + int(r.next()%uint64(n-1))
				_, end := devices[0].Acquire(16, nil)
				g.Send(0, dst, end+g.Lookahead(), "spine.out", step(dst, id, budget-1))
				return
			}
			devices[shard].Block(now + Time(r.next()%48))
			if n > 2 && r.next()%8 == 0 {
				// Cross-rack hop: route through the spine shard.
				g.Send(shard, 0, now+g.Lookahead()+Time(r.next()%32), "spine.in", step(0, id, budget-1))
				return
			}
			g.Shard(shard).AfterNamed(Time(r.next()%96)+1, "rack.op", step(shard, id, budget-1))
		}
	}
	for rack := 1; rack < n; rack++ {
		for c := 0; c < 4; c++ {
			g.Shard(rack).AfterNamed(Time(rngs[rack].next()%64), "rack.op",
				step(rack, rack*1000+c, opsPerRack/4))
		}
	}
	return &traces
}

type groupState struct {
	Now       Time
	Pending   int
	Processed uint64
	By        map[string]uint64
	Traces    [][]string
}

func runRackModel(racks, opsPerRack int, parallel bool) groupState {
	g := NewShardGroup(racks, 500)
	traces := buildRackModel(g, opsPerRack)
	if parallel {
		g.Run()
	} else {
		g.RunSequential()
	}
	return groupState{
		Now: g.Now(), Pending: g.Pending(), Processed: g.Processed(),
		By: g.ProcessedBy(), Traces: *traces,
	}
}

// TestShardGroupParallelMatchesSequential is the heart of the sharding
// contract: one goroutine per shard under window barriers executes the
// byte-identical schedule of the single-goroutine oracle.
func TestShardGroupParallelMatchesSequential(t *testing.T) {
	for _, racks := range []int{1, 2, 3, 8} {
		seq := runRackModel(racks, 400, false)
		par := runRackModel(racks, 400, true)
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("racks=%d: parallel run diverged from sequential oracle\nseq: now=%d processed=%d by=%v\npar: now=%d processed=%d by=%v",
				racks, seq.Now, seq.Processed, seq.By, par.Now, par.Processed, par.By)
		}
		if seq.Processed == 0 {
			t.Fatalf("racks=%d: model executed no events", racks)
		}
	}
}

// TestShardGroupRunUntil checks the deadline semantics: events at or
// before the deadline run, later ones stay pending, all clocks advance
// to the deadline — and resuming completes identically to an unbounded
// run.
func TestShardGroupRunUntil(t *testing.T) {
	full := runRackModel(3, 200, false)

	g := NewShardGroup(3, 500)
	traces := buildRackModel(g, 200)
	deadline := Time(5_000)
	g.RunUntil(deadline)
	for i := 0; i < g.Shards(); i++ {
		if now := g.Shard(i).Now(); now != deadline {
			t.Fatalf("shard %d clock %d after RunUntil(%d)", i, now, deadline)
		}
	}
	g.Run()
	got := groupState{Now: g.Now(), Pending: g.Pending(), Processed: g.Processed(),
		By: g.ProcessedBy(), Traces: *traces}
	if !reflect.DeepEqual(full, got) {
		t.Errorf("RunUntil+Run diverged from a single Run: %v vs %v", got.By, full.By)
	}
}

// TestShardSendContract pins the Send preconditions: lookahead
// violations, self-sends, and nil functions all panic — each is a
// causality or API misuse the conservative window cannot absorb.
func TestShardSendContract(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	g := NewShardGroup(2, 100)
	mustPanic("lookahead violation", func() {
		g.Send(1, 0, g.Shard(1).Now()+99, "x", func(Time) {})
	})
	mustPanic("self send", func() {
		g.Send(1, 1, g.Shard(1).Now()+100, "x", func(Time) {})
	})
	mustPanic("nil fn", func() { g.Send(1, 0, 100, "x", nil) })
	g.Send(1, 0, g.Shard(1).Now()+100, "ok", func(Time) {}) // boundary is legal
	if got := g.Pending(); got != 1 {
		t.Fatalf("Pending = %d after one undelivered send, want 1", got)
	}
}

// TestShardGroupAggregates checks the sharded Engine-surface aggregate:
// Pending counts undelivered mail, Processed and ProcessedBy sum across
// shards, and Now is the conservative minimum of the shard clocks.
func TestShardGroupAggregates(t *testing.T) {
	g := NewShardGroup(2, 10)
	g.Shard(1).AtNamed(5, "a", func(Time) {})
	g.Shard(2).AtNamed(7, "b", func(Time) {})
	g.Send(1, 2, 20, "mail", func(Time) {})
	if got := g.Pending(); got != 3 {
		t.Fatalf("Pending = %d, want 3 (two local + one mailbox)", got)
	}
	g.Run()
	if got := g.Processed(); got != 3 {
		t.Fatalf("Processed = %d, want 3", got)
	}
	want := map[string]uint64{"a": 1, "b": 1, "mail": 1}
	if got := g.ProcessedBy(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ProcessedBy = %v, want %v", got, want)
	}
	if g.Now() > g.Shard(0).Now() || g.Now() > g.Shard(1).Now() || g.Now() > g.Shard(2).Now() {
		t.Fatalf("group Now %d exceeds a shard clock", g.Now())
	}
}

// TestShardGroupProcessedByDefensiveCopy is the regression test for the
// cross-shard per-handler counters: the merged map is a defensive copy,
// so callers mutating it (a Result post-processor, a test helper) cannot
// corrupt any shard's interned-label slots.
func TestShardGroupProcessedByDefensiveCopy(t *testing.T) {
	g := NewShardGroup(2, 10)
	fn := func(Time) {}
	g.Shard(1).AtNamed(1, "grant", fn)
	g.Shard(2).AtNamed(1, "grant", fn)
	g.Shard(2).AtNamed(2, "gc", fn)
	g.RunSequential()

	first := g.ProcessedBy()
	first["grant"] = 999
	first["gc"] = 0
	delete(first, "gc")
	first["injected"] = 42

	want := map[string]uint64{"grant": 2, "gc": 1}
	if got := g.ProcessedBy(); !reflect.DeepEqual(got, want) {
		t.Fatalf("mutating the returned map corrupted shard counters: %v, want %v", got, want)
	}
	// The per-shard views must be intact too.
	if got := g.Shard(2).ProcessedBy(); !reflect.DeepEqual(got, map[string]uint64{"grant": 1, "gc": 1}) {
		t.Fatalf("shard 2 counters corrupted: %v", got)
	}
}

// TestShardGroupSetTick checks the per-shard observer tick: boundaries
// are anchored to the virtual-time axis on every shard, fire between
// that shard's events, and never count as events.
func TestShardGroupSetTick(t *testing.T) {
	g := NewShardGroup(1, 50)
	var ticks []string
	g.SetTick(100, func(shard int, at Time) {
		ticks = append(ticks, fmt.Sprintf("s%d@%d", shard, at))
	})
	g.Shard(1).AtNamed(250, "x", func(Time) {})
	g.RunSequential()
	// Shard 1 runs its event at 250, crossing boundaries 100 and 200;
	// shard 0 idles (clock dragged forward by the window) and fires the
	// same boundaries.
	want := []string{"s0@100", "s0@200", "s1@100", "s1@200"}
	got := append([]string(nil), ticks...)
	// Tick interleaving across shards is an artifact of shard step order
	// within the window; per-shard subsequences are the contract.
	perShard := map[byte][]string{}
	for _, s := range got {
		perShard[s[1]] = append(perShard[s[1]], s)
	}
	if !reflect.DeepEqual(perShard['0'], want[:2]) || !reflect.DeepEqual(perShard['1'], want[2:]) {
		t.Fatalf("ticks = %v, want per-shard %v", got, want)
	}
	if g.Processed() != 1 {
		t.Fatalf("ticks counted as events: Processed = %d, want 1", g.Processed())
	}
}

// TestShardGroupStop checks that Engine.Stop inside a shard's handler
// ends the group run at that window's barrier, leaving later events
// pending — the sharded analogue of the single-engine semantics.
func TestShardGroupStop(t *testing.T) {
	g := NewShardGroup(2, 1000)
	ran := map[string]bool{}
	g.Shard(1).AtNamed(10, "a", func(Time) {
		ran["a"] = true
		g.Shard(1).Stop()
	})
	g.Shard(2).AtNamed(10, "b", func(Time) { ran["b"] = true }) // same window
	g.Shard(1).AtNamed(5_000, "late", func(Time) { ran["late"] = true })
	g.RunSequential()
	if !ran["a"] || !ran["b"] {
		t.Fatalf("same-window events should complete: %v", ran)
	}
	if ran["late"] {
		t.Fatal("event beyond the stopped window ran")
	}
	if g.Pending() == 0 {
		t.Fatal("stop drained the queue")
	}
}

// TestShardGroupMailboxCanonicalOrder pins the merge rule: same-instant
// deliveries from different sources land in (time, source shard, send
// sequence) order regardless of send interleaving across windows.
func TestShardGroupMailboxCanonicalOrder(t *testing.T) {
	g := NewShardGroup(3, 10)
	var order []string
	rec := func(tag string) EventFunc {
		return func(Time) { order = append(order, tag) }
	}
	// All target shard 0 at t=100. Sends issued in scrambled source
	// order; canonical order is by (src, seq).
	g.Send(3, 0, 100, "m", rec("s3/1"))
	g.Send(1, 0, 100, "m", rec("s1/1"))
	g.Send(2, 0, 100, "m", rec("s2/1"))
	g.Send(1, 0, 100, "m", rec("s1/2"))
	g.Send(2, 0, 99, "m", rec("s2/early"))
	g.RunSequential()
	want := []string{"s2/early", "s1/1", "s1/2", "s2/1", "s3/1"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("delivery order %v, want %v", order, want)
	}
}

// TestShardGroupSteadyStateAllocs is the shard runner's allocation gate:
// once the mailboxes and the merge buffer have grown, sequential windows
// in which every shard sends cross-shard mail to both of its neighbours
// allocate nothing, mailbox merge included.
func TestShardGroupSteadyStateAllocs(t *testing.T) {
	const windows = 10
	g := NewShardGroup(2, 10)
	n := g.Shards()
	hops := make([]*shardHop, 2*n)
	for i := range hops {
		hops[i] = &shardHop{g: g, step: 1}
		if i >= n {
			hops[i].step = n - 1 // the other way round the ring
		}
	}
	run := func() {
		for i, h := range hops {
			h.shard, h.left = i%n, windows
			eng := g.Shard(h.shard)
			eng.Schedule(eng.Now(), labelShardHop, h)
		}
		g.RunSequential()
	}
	run()
	if got, want := g.Processed(), uint64(len(hops)*(windows+1)); got != want {
		t.Fatalf("Processed = %d, want %d", got, want)
	}
	avg := testing.AllocsPerRun(20, run)
	t.Logf("%.1f allocations per %d windows of cross-shard mail", avg, windows)
	if avg != 0 {
		t.Errorf("steady-state windows allocate %.1f objects per %d windows, want 0", avg, windows)
	}
}

var labelShardHop = NewLabel("shard.hop")

// shardHop is a Handler that forwards itself step shards round the ring
// one lookahead later, left more times.
type shardHop struct {
	g     *ShardGroup
	shard int
	step  int
	left  int
}

func (h *shardHop) Fire(now Time) {
	if h.left == 0 {
		return
	}
	h.left--
	src := h.shard
	h.shard = (src + h.step) % h.g.Shards()
	h.g.Post(src, h.shard, now+h.g.Lookahead(), labelShardHop, h)
}
