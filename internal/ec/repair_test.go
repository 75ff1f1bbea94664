package ec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestDoneIdempotentAfterHolderComplete is the regression test for the
// double-report bug: a duplicate Done for an already-completed holder
// used to drive remaining through the left > 0 guard (0 - stripes < 0)
// and return a second spurious holderComplete=true, re-triggering
// re-integration.
func TestDoneIdempotentAfterHolderComplete(t *testing.T) {
	r := NewReconstructor()
	r.EnqueueChunk(3, 64, 64)
	task, ok := r.NextUpTo(math.MaxInt)
	if !ok {
		t.Fatal("no task")
	}
	if !r.Done(task) {
		t.Fatal("first Done did not complete the holder")
	}
	if r.Done(task) {
		t.Fatal("duplicate Done reported holderComplete=true again")
	}
	if got := r.RepairedStripes(); got != 64 {
		t.Fatalf("duplicate Done double-counted repairs: %d, want 64", got)
	}
	if got := r.Remaining(3); got != 0 {
		t.Fatalf("remaining after duplicate Done = %d, want 0", got)
	}
	// A fresh enqueue for the same holder starts clean.
	r.EnqueueChunk(3, 10, 64)
	task, _ = r.NextUpTo(math.MaxInt)
	if !r.Done(task) {
		t.Fatal("re-enqueued holder did not complete")
	}
}

// stripeLedger tallies TraceHook transitions in stripes, not tasks:
// NextUpTo splits one enqueued task into several terminal reports, so
// only the stripe counts can balance.
type stripeLedger struct{ enqueued, done, void, resets int }

func (l *stripeLedger) hook(op string, t RepairTask) {
	switch op {
	case "enqueue":
		l.enqueued += t.Stripes
	case "done":
		l.done += t.Stripes
	case "void":
		l.void += t.Stripes
	case "reset":
		l.resets++
	}
}

// TestTraceHookVoidBalance is the regression test for the skipped
// terminal transition: tasks superseded by Reset — whether still queued
// or already claimed — used to emit "enqueue" with no matching terminal
// op, so flight-recorder queue accounting could never balance. Every
// enqueued stripe must now reach exactly one of "done" or "void".
func TestTraceHookVoidBalance(t *testing.T) {
	r := NewReconstructor()
	var ledger stripeLedger
	r.TraceHook = ledger.hook

	r.EnqueueChunk(1, 100, 64) // tasks of 64 + 36
	claimed, _ := r.NextUpTo(10)
	r.Reset(1) // voids the queued 90, leaves the claimed 10 in flight
	if ledger.void != 90 {
		t.Fatalf("Reset voided %d stripes, want 90 (the queued remainder)", ledger.void)
	}
	if r.Done(claimed) {
		t.Fatal("stale claim completed a reset holder")
	}
	if ledger.void != 100 {
		t.Fatalf("stale Done voided %d stripes total, want 100", ledger.void)
	}

	// The holder's re-enqueued rebuild completes normally.
	r.EnqueueChunk(1, 20, 64)
	task, _ := r.NextUpTo(math.MaxInt)
	if !r.Done(task) {
		t.Fatal("re-enqueued rebuild did not complete")
	}
	if ledger.enqueued != ledger.done+ledger.void {
		t.Fatalf("unbalanced ledger: enqueued %d != done %d + void %d",
			ledger.enqueued, ledger.done, ledger.void)
	}
	if ledger.done != 20 || ledger.resets != 1 {
		t.Fatalf("done=%d resets=%d, want 20 and 1", ledger.done, ledger.resets)
	}
}

// TestCompactPlacementRejectsWidthOverServers is the regression test for
// the compact-mode holder collision: with Width > Servers the in-rack
// rotation (start+i) % Servers must wrap two chunks onto one server, so
// the geometry is rejected — ValidateCluster returns an error on the
// config path and Place panics for direct Placer users instead of
// silently violating the distinct-servers invariant.
func TestCompactPlacementRejectsWidthOverServers(t *testing.T) {
	spec := Spec{K: 4, M: 2}
	if err := spec.ValidateCluster(1, 5, PlaceCompact); err == nil {
		t.Error("ValidateCluster accepted width-6 compact placement on 5 servers")
	}
	if err := spec.ValidateCluster(3, 5, PlaceCompact); err == nil {
		t.Error("ValidateCluster accepted width-6 compact placement on 5-server racks")
	}
	for _, placer := range []Placer{
		{Servers: 5, Width: 6, Mode: PlaceCompact},
		{Servers: 5, Racks: 3, Width: 6, Mode: PlaceCompact},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Place with Width=%d > Servers=%d (racks=%d) did not panic",
						placer.Width, placer.Servers, placer.Racks)
				}
			}()
			out := placer.Place(0)
			seen := make(map[int]bool)
			for _, srv := range out {
				if seen[srv] {
					t.Fatalf("silent collision: %v", out)
				}
				seen[srv] = true
			}
		}()
	}
}

// TestNextUpToResetProperty drives random claim / split / reset / done /
// duplicate-done sequences against a reference model and asserts the
// repair queue's lifecycle invariants: split remainders inherit the
// head's generation, voided (stale-generation) completions never count
// toward the new rebuild, Remaining never goes negative, and the trace
// ledger balances once everything drains.
func TestNextUpToResetProperty(t *testing.T) {
	const holders = 3
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewReconstructor()
		var ledger stripeLedger
		r.TraceHook = ledger.hook

		modelRemaining := make([]int, holders)
		modelGen := make([]int, holders)
		modelRepaired := 0
		var inflight []RepairTask
		var completed []RepairTask

		check := func() bool {
			for h := 0; h < holders; h++ {
				if r.Remaining(h) < 0 {
					t.Errorf("seed %d: Remaining(%d) = %d < 0", seed, h, r.Remaining(h))
					return false
				}
				if r.Remaining(h) != modelRemaining[h] {
					t.Errorf("seed %d: Remaining(%d) = %d, model %d",
						seed, h, r.Remaining(h), modelRemaining[h])
					return false
				}
				if r.Gen(h) != modelGen[h] {
					t.Errorf("seed %d: Gen(%d) = %d, model %d", seed, h, r.Gen(h), modelGen[h])
					return false
				}
			}
			if r.RepairedStripes() != modelRepaired {
				t.Errorf("seed %d: repaired %d, model %d", seed, r.RepairedStripes(), modelRepaired)
				return false
			}
			return true
		}
		doDone := func(task RepairTask) bool {
			stale := task.Gen != modelGen[task.Holder]
			want := false
			if !stale {
				modelRepaired += task.Stripes
				modelRemaining[task.Holder] -= task.Stripes
				want = modelRemaining[task.Holder] == 0
			}
			if got := r.Done(task); got != want {
				t.Errorf("seed %d: Done(%+v) = %v, want %v (stale=%v)", seed, task, got, want, stale)
				return false
			}
			if !stale {
				completed = append(completed, task)
			}
			return true
		}

		for step := 0; step < 60; step++ {
			h := rng.Intn(holders)
			switch rng.Intn(5) {
			case 0: // enqueue a fresh batch
				n := 1 + rng.Intn(40)
				r.EnqueueChunk(h, n, 1+rng.Intn(16))
				modelRemaining[h] += n
			case 1: // claim a (possibly split) prefix
				task, ok := r.NextUpTo(1 + rng.Intn(12))
				if !ok {
					continue
				}
				// Queued tasks are always current-generation (Reset purges
				// them), so a split head and its remainder share the gen.
				if task.Gen != modelGen[task.Holder] {
					t.Errorf("seed %d: claimed task gen %d, holder gen %d",
						seed, task.Gen, modelGen[task.Holder])
					return false
				}
				inflight = append(inflight, task)
			case 2: // report an in-flight claim
				if len(inflight) == 0 {
					continue
				}
				i := rng.Intn(len(inflight))
				task := inflight[i]
				inflight = append(inflight[:i], inflight[i+1:]...)
				if !doDone(task) {
					return false
				}
			case 3: // reset a holder: void its queue, supersede its claims
				r.Reset(h)
				modelGen[h]++
				modelRemaining[h] = 0
			case 4: // duplicate Done for a completed holder: silent no-op
				if len(completed) == 0 {
					continue
				}
				task := completed[rng.Intn(len(completed))]
				if task.Gen != modelGen[task.Holder] || modelRemaining[task.Holder] != 0 {
					// A re-enqueued same-generation holder makes the duplicate
					// indistinguishable from a live claim, and a reset makes it
					// a stale report; neither is the double-report scenario.
					continue
				}
				if r.Done(task) {
					t.Errorf("seed %d: duplicate Done(%+v) reported holderComplete", seed, task)
					return false
				}
				if r.RepairedStripes() != modelRepaired {
					t.Errorf("seed %d: duplicate Done recounted stripes", seed)
					return false
				}
			}
			if !check() {
				return false
			}
		}

		// Drain: complete everything still queued or in flight, then the
		// stripe ledger must balance exactly.
		for {
			task, ok := r.NextUpTo(math.MaxInt)
			if !ok {
				break
			}
			if !doDone(task) {
				return false
			}
		}
		for _, task := range inflight {
			if !doDone(task) {
				return false
			}
		}
		if !check() {
			return false
		}
		if ledger.enqueued != ledger.done+ledger.void {
			t.Errorf("seed %d: unbalanced ledger: enqueued %d != done %d + void %d",
				seed, ledger.enqueued, ledger.done, ledger.void)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
