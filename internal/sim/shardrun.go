// The worker pool: the ONE file in the simulation tree that may start
// goroutines.
//
// Everything else under internal/ is single-threaded by design (the
// rackvet goroutinediscipline analyzer rejects `go` statements anywhere
// else) because goroutine interleaving is the cheapest way to lose
// bit-exact replay. Do runs n independent tasks on the calling goroutine
// and on the pool's workers, and its callers keep the concurrency
// unobservable by giving every task state of its own:
//
//   - ShardGroup.Run and RunUntil run one task per shard in each window.
//     The barrier protocol in shard.go lets a window's task execute only
//     its own shard's engine and append only to its own shard's outgoing
//     mailboxes, and Do returns only when every shard has reached the
//     window end, so the parallel schedule is the sequential one. The
//     sharded-vs-sequential differential fuzzer and the byte-identity
//     tests hold Run to that.
//   - core's NewRack runs one task per server to precondition its
//     devices, and one per volume to build its workload generator. A
//     task writes only its own server's flash array, chips and FTLs, or
//     its own volume's generator, and draws only from streams whose
//     seeds were drawn from the rack's stream, in build order, before
//     Do.
//
// Which goroutine runs a task, and in what order, is therefore never
// part of a result.
package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// pool is the process's one set of workers. A worker starts the first
// time a Do call could use it, at most GOMAXPROCS-1 of them, and then
// stays parked on invites for the life of the process, so no call grows
// the heap with goroutine descriptors.
var pool struct {
	mu      sync.Mutex
	workers int
	// free holds finished rounds for reuse, so a Do call allocates
	// nothing once as many rounds exist as calls ever ran at once.
	free []*round
}

// invites carries offers to help with a round. Do sends without
// blocking, so a caller never waits for a busy worker: an offer that
// finds the buffer full is not made, and one that no worker takes before
// its round's caller has claimed the last task goes stale and is
// ignored. 64 offers leave room for every helper of several concurrent
// or nested calls.
var invites = make(chan invite, 64)

// invite offers a worker round r while r's generation is still gen.
type invite struct {
	r   *round
	gen uint64
}

// round is the shared state of one Do call. Participants claim task
// indices from next until it passes n.
type round struct {
	task func(i int)
	n    int64
	next atomic.Int64

	mu sync.Mutex
	// gen advances when the caller has claimed the last index, voiding
	// the round's invites that no worker has taken yet.
	gen uint64
	// active counts the workers inside the round, and done wakes the
	// caller when the last of them leaves after gen advanced.
	active int
	done   chan struct{}
	// The panic of the lowest-index task that panicked, if any.
	panicked bool
	index    int
	value    any
	stack    []byte
}

// Do runs task(i) for every i in [0, n) and returns when all have
// returned. The calling goroutine runs tasks too, beside up to
// GOMAXPROCS-1 pool workers, so a task may itself call Do: when every
// worker is busy, the nested call runs its tasks on its own goroutine.
// Tasks must not depend on one another or on the order they run in. If
// tasks panic, Do panics on the caller after every task has finished,
// naming the lowest index that panicked with its value and stack.
func Do(n int, task func(i int)) {
	if n <= 0 {
		return
	}
	helpers := min(n, runtime.GOMAXPROCS(0)) - 1
	r := startRound(helpers)
	r.task, r.n = task, int64(n)
	r.next.Store(0)
	for range helpers {
		select {
		case invites <- invite{r, r.gen}:
		default:
		}
	}
	r.work()
	r.mu.Lock()
	r.gen++
	wait := r.active > 0
	r.mu.Unlock()
	if wait {
		<-r.done
	}
	panicked, index, value, stack := r.panicked, r.index, r.value, r.stack
	endRound(r)
	if panicked {
		panic(fmt.Sprintf("sim: task %d of %d panicked: %v\n\n%s", index, n, value, stack))
	}
}

// startRound takes a free round, first starting workers until there are
// helpers of them.
func startRound(helpers int) *round {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	for ; pool.workers < helpers; pool.workers++ {
		go serve()
	}
	if k := len(pool.free); k > 0 {
		r := pool.free[k-1]
		pool.free = pool.free[:k-1]
		return r
	}
	return &round{done: make(chan struct{}, 1)}
}

// endRound clears what the round must not retain and frees it.
func endRound(r *round) {
	r.task = nil
	r.panicked, r.value, r.stack = false, nil, nil
	pool.mu.Lock()
	pool.free = append(pool.free, r)
	pool.mu.Unlock()
}

// serve is a worker: it joins each round it is invited to unless the
// invite went stale, and helps until the round's tasks run out.
func serve() {
	for inv := range invites {
		r := inv.r
		r.mu.Lock()
		if r.gen != inv.gen {
			r.mu.Unlock()
			continue
		}
		r.active++
		r.mu.Unlock()
		r.work()
		r.mu.Lock()
		r.active--
		last := r.active == 0 && r.gen != inv.gen
		r.mu.Unlock()
		if last {
			r.done <- struct{}{}
		}
	}
}

// work runs unclaimed tasks until none is left.
func (r *round) work() {
	for {
		i := r.next.Add(1) - 1
		if i >= r.n {
			return
		}
		r.run(int(i))
	}
}

// run runs task i, recording its panic if it is the lowest-index one.
func (r *round) run(i int) {
	defer func() {
		if v := recover(); v != nil {
			stack := debug.Stack()
			r.mu.Lock()
			if !r.panicked || i < r.index {
				r.panicked, r.index, r.value, r.stack = true, i, v, stack
			}
			r.mu.Unlock()
		}
	}()
	r.task(i)
}

// Run drives the shards to completion, running each window's shards on
// the worker pool and barriering between windows. The executed schedule
// (and every observable result) is byte-identical to RunSequential;
// only the wall-clock time changes.
func (g *ShardGroup) Run() { g.runLoop(g.parWindow) }

// RunUntil is Run bounded by a deadline: events at or before it execute,
// later ones stay pending, and every shard's clock advances to the
// deadline, like Engine.RunUntil.
func (g *ShardGroup) RunUntil(deadline Time) { g.runLoopUntil(deadline, g.parWindow) }

// parWindow runs one window with each shard a task of Do. Do returning
// is the barrier: every shard has advanced to end, and all outgoing mail
// is visible to the caller.
func (g *ShardGroup) parWindow(end Time) {
	g.end = end
	Do(len(g.engines), g.runShard)
}
