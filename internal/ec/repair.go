package ec

// RepairTask is one unit of background reconstruction: rebuild the lost
// chunks of a contiguous batch of stripes onto their adopting holder.
// Batching keeps the repair queue (and the simulator's event count)
// proportional to lost capacity, not to individual pages.
type RepairTask struct {
	// Holder is the group-local index of the lost chunk holder.
	Holder int
	// FirstStripe and Stripes delimit the batch.
	FirstStripe int
	Stripes     int
	// Gen is the holder's repair generation at enqueue time (stamped by
	// Enqueue). Reset advances the generation, so a task claimed before
	// the reset reports Done as a stale no-op instead of counting toward
	// the new rebuild.
	Gen int
}

// Reconstructor queues and accounts chunk-repair work for one stripe
// group. It is deliberately passive: the rack decides *when* a task may
// run (only in switch-observed GC idle windows, the same gate soft-GC
// requests pass) and calls NextUpTo to claim work; the reconstructor only
// tracks what remains. Per-holder remaining counts let the caller close
// the repair loop: Done reports when the last stripe of a holder has
// been rebuilt, the moment its replacement can be re-registered in the
// switch stripe tables.
type Reconstructor struct {
	pending  []RepairTask
	repaired int
	delayed  int
	// remaining tracks, per lost holder, the stripes still to rebuild.
	remaining map[int]int
	// gen is each holder's current repair generation (see Reset).
	gen map[int]int

	// TraceHook, when non-nil, observes queue transitions ("enqueue",
	// "done", "void", "reset") for the flight recorder. Every enqueued
	// stripe reaches exactly one terminal transition — "done" when its
	// repair counted, "void" when a Reset superseded it (whether it was
	// still queued or already claimed) — so queue accounting balances:
	// enqueued stripes == done stripes + void stripes. Pure observer: it
	// must not touch the queue.
	TraceHook func(op string, t RepairTask)
}

// notify reports one queue transition to the trace hook, if installed.
func (r *Reconstructor) notify(op string, t RepairTask) {
	if r.TraceHook != nil {
		r.TraceHook(op, t)
	}
}

// NewReconstructor returns an empty repair queue.
func NewReconstructor() *Reconstructor {
	return &Reconstructor{remaining: make(map[int]int), gen: make(map[int]int)}
}

// Enqueue adds one repair task, stamping it with the holder's current
// generation.
func (r *Reconstructor) Enqueue(t RepairTask) {
	t.Gen = r.gen[t.Holder]
	r.pending = append(r.pending, t)
	r.remaining[t.Holder] += t.Stripes
	r.notify("enqueue", t)
}

// EnqueueChunk splits the repair of one lost holder's chunks over
// [0, stripes) into batch-sized tasks.
func (r *Reconstructor) EnqueueChunk(holder, stripes, batch int) {
	if batch < 1 {
		batch = 1
	}
	for first := 0; first < stripes; first += batch {
		n := batch
		if first+n > stripes {
			n = stripes - first
		}
		r.Enqueue(RepairTask{Holder: holder, FirstStripe: first, Stripes: n})
	}
}

// NextUpTo claims at most limit stripes of the oldest pending task,
// splitting the task when it is larger: the claimed prefix is returned
// and the remainder — same holder, same generation — stays at the head
// of the queue. The repair pacer uses it to cut enqueued batches down to
// token-sized transfers, so a large batch cannot monopolize the shared
// spine link in one burst. A limit below 1 claims one stripe.
func (r *Reconstructor) NextUpTo(limit int) (t RepairTask, ok bool) {
	if len(r.pending) == 0 {
		return RepairTask{}, false
	}
	if limit < 1 {
		limit = 1
	}
	head := r.pending[0]
	if head.Stripes <= limit {
		r.pending = r.pending[1:]
		return head, true
	}
	rest := head
	rest.FirstStripe += limit
	rest.Stripes -= limit
	r.pending[0] = rest
	head.Stripes = limit
	return head, true
}

// Done records a completed task's stripes and reports whether the
// task's holder is now fully rebuilt — every stripe enqueued for it has
// been repaired — so the caller can re-register the replacement holder.
// A task from a generation superseded by Reset is void: its stripes
// count toward neither progress nor completion, and the trace hook sees
// the terminal "void" transition that balances its "enqueue". Done is
// idempotent: reporting a task again after its holder already completed
// is a no-op, not a second holderComplete=true.
func (r *Reconstructor) Done(t RepairTask) (holderComplete bool) {
	if t.Gen != r.gen[t.Holder] {
		r.notify("void", t)
		return false
	}
	left, open := r.remaining[t.Holder]
	if !open {
		// Duplicate Done for an already-completed holder: its stripes
		// were counted the first time, so a second report must not run
		// remaining negative or re-trigger re-integration.
		return false
	}
	r.notify("done", t)
	r.repaired += t.Stripes
	left -= t.Stripes
	if left > 0 {
		r.remaining[t.Holder] = left
		return false
	}
	delete(r.remaining, t.Holder)
	return true
}

// Remaining returns the stripes still to rebuild for one holder (0 once
// complete or never enqueued).
func (r *Reconstructor) Remaining(holder int) int { return r.remaining[holder] }

// Reset discards one holder's queued repair work and advances its
// generation, voiding any task the caller has already claimed but not
// yet reported Done. Server revival uses it when a returning blank
// server must be rebuilt from scratch: however far a previous adopter
// had come, the catch-up re-enqueues the holder's full chunk set.
func (r *Reconstructor) Reset(holder int) {
	kept := r.pending[:0]
	for _, t := range r.pending {
		if t.Holder != holder {
			kept = append(kept, t)
		} else {
			// Still-queued work discarded by the reset terminates here;
			// already-claimed work terminates when its stale Done lands.
			r.notify("void", t)
		}
	}
	r.pending = kept
	delete(r.remaining, holder)
	r.gen[holder]++
	r.notify("reset", RepairTask{Holder: holder, Gen: r.gen[holder]})
}

// Gen returns one holder's current repair generation (see Reset). The
// caller can stamp deferred completion work with it and drop the work
// if the generation has moved on — the holder was lost again.
func (r *Reconstructor) Gen(holder int) int { return r.gen[holder] }

// Delayed records one admission attempt pushed back by a busy GC window.
func (r *Reconstructor) Delayed() { r.delayed++ }

// Pending returns the queued task count.
func (r *Reconstructor) Pending() int { return len(r.pending) }

// RepairedStripes returns how many stripes have been rebuilt.
func (r *Reconstructor) RepairedStripes() int { return r.repaired }

// DelayCount returns how many admissions the GC gate pushed back.
func (r *Reconstructor) DelayCount() int { return r.delayed }
