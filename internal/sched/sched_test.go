package sched

import (
	"testing"
	"testing/quick"

	"rackblox/internal/sim"
)

func req(seq uint64, write bool, arrival, net, pred sim.Time) *Request {
	return &Request{Seq: seq, Write: write, Arrival: arrival, NetTime: net, Predict: pred}
}

func TestPolicyString(t *testing.T) {
	if FIFO.String() != "FIFO" || Deadline.String() != "Deadline" || Kyber.String() != "Kyber" {
		t.Fatal("policy names")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Fatal("unknown policy name")
	}
}

func TestUnknownPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for unknown policy")
		}
	}()
	New(Config{Policy: Policy(42)})
}

func TestFIFOOrder(t *testing.T) {
	s := New(Config{Policy: FIFO})
	s.Enqueue(req(1, false, 30, 0, 0))
	s.Enqueue(req(2, false, 10, 0, 0))
	s.Enqueue(req(3, true, 20, 0, 0))
	var got []uint64
	for r := s.Dequeue(100); r != nil; r = s.Dequeue(100) {
		got = append(got, r.Seq)
	}
	want := []uint64{2, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestFIFOEmptyDequeue(t *testing.T) {
	s := New(Config{Policy: FIFO})
	if s.Dequeue(0) != nil {
		t.Fatal("empty dequeue != nil")
	}
	if s.Len() != 0 {
		t.Fatal("len != 0")
	}
}

func TestCoordinatedFIFOPicksMaxPrio(t *testing.T) {
	s := New(Config{Policy: FIFO, Coordinated: true})
	// Same arrival: the request that already spent 900us in the network
	// and expects a slow return must go first.
	s.Enqueue(req(1, false, 0, 100*sim.Microsecond, 50*sim.Microsecond))
	s.Enqueue(req(2, false, 0, 900*sim.Microsecond, 300*sim.Microsecond))
	s.Enqueue(req(3, false, 0, 10*sim.Microsecond, 10*sim.Microsecond))
	if r := s.Dequeue(sim.Millisecond); r.Seq != 2 {
		t.Fatalf("first = %d, want 2 (max Prio_sched)", r.Seq)
	}
	if r := s.Dequeue(sim.Millisecond); r.Seq != 1 {
		t.Fatalf("second = %d, want 1", r.Seq)
	}
}

func TestCoordinatedAccountsQueueTime(t *testing.T) {
	s := New(Config{Policy: FIFO, Coordinated: true})
	// Earlier arrival means more accumulated Storage_time, so with equal
	// network latency the older request wins.
	s.Enqueue(req(1, false, 500, 0, 0))
	s.Enqueue(req(2, false, 100, 0, 0))
	if r := s.Dequeue(1000); r.Seq != 2 {
		t.Fatalf("first = %d, want the older request", r.Seq)
	}
}

func TestDeadlinePrefersReads(t *testing.T) {
	s := New(Config{Policy: Deadline})
	s.Enqueue(req(1, true, 0, 0, 0))
	s.Enqueue(req(2, false, 10, 0, 0))
	if r := s.Dequeue(20); r.Seq != 2 {
		t.Fatalf("first = %d, want read", r.Seq)
	}
	if r := s.Dequeue(20); r.Seq != 1 {
		t.Fatalf("second = %d, want write", r.Seq)
	}
}

func TestDeadlineExpiredWritePreempts(t *testing.T) {
	s := New(Config{Policy: Deadline})
	s.Enqueue(req(1, true, 0, 0, 0))
	// Fresh read arrives after the write deadline has long passed.
	now := DeadlineWriteTarget + 10*sim.Microsecond
	s.Enqueue(req(2, false, now, 0, 0))
	if r := s.Dequeue(now); r.Seq != 1 {
		t.Fatalf("first = %d, want expired write", r.Seq)
	}
}

func TestDeadlineExpiredReadBeatsExpiredWrite(t *testing.T) {
	s := New(Config{Policy: Deadline})
	s.Enqueue(req(1, true, 0, 0, 0))
	s.Enqueue(req(2, false, 0, 0, 0))
	now := DeadlineWriteTarget + sim.Millisecond // both expired
	if r := s.Dequeue(now); r.Seq != 2 {
		t.Fatalf("first = %d, want expired read", r.Seq)
	}
}

func TestDeadlineDefaults(t *testing.T) {
	d := newDeadline(Config{Policy: Deadline})
	if d.readTarget != DeadlineReadTarget || d.writeTarget != DeadlineWriteTarget {
		t.Fatalf("defaults = %d, %d", d.readTarget, d.writeTarget)
	}
	dc := newDeadline(Config{Policy: Deadline, Coordinated: true})
	if dc.readTarget != CoordDeadlineReadTarget || dc.writeTarget != CoordDeadlineWriteTarget {
		t.Fatal("coordinated deadline defaults")
	}
}

func TestKyberDefaults(t *testing.T) {
	k := New(Config{Policy: Kyber}).(*kyber)
	read, write := Config{Policy: Kyber}.targets()
	if k.readTarget != KyberReadTarget || read != KyberReadTarget || write != KyberWriteTarget {
		t.Fatalf("kyber defaults = %d (scheduler %d), %d", read, k.readTarget, write)
	}
	read, write = Config{Policy: Kyber, Coordinated: true}.targets()
	if read != CoordKyberReadTarget || write != CoordKyberWriteTarget {
		t.Fatal("coordinated kyber defaults")
	}
}

func TestKyberThrottlesWritesOnSlowReads(t *testing.T) {
	k := New(Config{Policy: Kyber}).(*kyber)
	start := k.WriteBudget()
	// Feed a full window of read latencies far above target.
	for i := 0; i < kyberWindow; i++ {
		k.OnComplete(false, KyberReadTarget*10)
	}
	if k.WriteBudget() >= start {
		t.Fatalf("budget %d did not shrink from %d", k.WriteBudget(), start)
	}
	// Feed fast reads: budget recovers.
	low := k.WriteBudget()
	for j := 0; j < 20; j++ {
		for i := 0; i < kyberWindow; i++ {
			k.OnComplete(false, KyberReadTarget/10)
		}
	}
	if k.WriteBudget() <= low {
		t.Fatalf("budget %d did not recover from %d", k.WriteBudget(), low)
	}
}

func TestKyberBudgetFloor(t *testing.T) {
	k := New(Config{Policy: Kyber}).(*kyber)
	for j := 0; j < 10; j++ {
		for i := 0; i < kyberWindow; i++ {
			k.OnComplete(false, KyberReadTarget*100)
		}
	}
	if k.WriteBudget() < 1 {
		t.Fatalf("budget %d below floor", k.WriteBudget())
	}
}

func TestKyberInflightLimit(t *testing.T) {
	k := New(Config{Policy: Kyber}).(*kyber)
	for i := 0; i < 50; i++ {
		k.Enqueue(req(uint64(i), true, 0, 0, 0))
	}
	dispatched := 0
	for k.Dequeue(0) != nil {
		dispatched++
	}
	if dispatched != kyberStartBudget {
		t.Fatalf("dispatched %d writes, want budget %d", dispatched, kyberStartBudget)
	}
	// Completing one write frees one slot.
	k.OnComplete(true, sim.Millisecond)
	if k.Dequeue(0) == nil {
		t.Fatal("completion did not free a write slot")
	}
}

func TestKyberReadsNeverThrottled(t *testing.T) {
	k := New(Config{Policy: Kyber}).(*kyber)
	for i := 0; i < 30; i++ {
		k.Enqueue(req(uint64(i), false, 0, 0, 0))
	}
	for i := 0; i < 30; i++ {
		if k.Dequeue(0) == nil {
			t.Fatalf("read %d throttled", i)
		}
	}
}

// Property: every enqueued request is dequeued exactly once, regardless of
// policy or coordination.
func TestConservationProperty(t *testing.T) {
	f := func(writes []bool, policyRaw, coordRaw uint8) bool {
		cfg := Config{Policy: Policy(policyRaw % 3), Coordinated: coordRaw%2 == 0}
		s := New(cfg)
		for i, w := range writes {
			s.Enqueue(req(uint64(i), w, sim.Time(i), sim.Time(i%7)*100, sim.Time(i%3)*50))
		}
		seen := map[uint64]bool{}
		now := sim.Time(len(writes))
		for {
			r := s.Dequeue(now)
			if r == nil {
				// Kyber may throttle writes; complete one to make progress.
				if s.Len() > 0 {
					s.OnComplete(true, sim.Microsecond)
					now += sim.Millisecond
					continue
				}
				break
			}
			if seen[r.Seq] {
				return false // duplicate dispatch
			}
			seen[r.Seq] = true
		}
		return len(seen) == len(writes) && s.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: in coordinated mode, among same-arrival requests the dispatch
// order is by non-increasing NetTime+Predict.
func TestCoordinatedOrderProperty(t *testing.T) {
	f := func(lat []uint16) bool {
		s := New(Config{Policy: FIFO, Coordinated: true})
		for i, l := range lat {
			s.Enqueue(req(uint64(i), false, 0, sim.Time(l), 0))
		}
		prev := sim.Time(1 << 62)
		for r := s.Dequeue(0); r != nil; r = s.Dequeue(0) {
			if r.NetTime > prev {
				return false
			}
			prev = r.NetTime
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCFQAlternatesClasses(t *testing.T) {
	s := New(Config{Policy: CFQ})
	for i := 0; i < 8; i++ {
		s.Enqueue(req(uint64(i), false, sim.Time(i), 0, 0))    // reads 0..7
		s.Enqueue(req(uint64(100+i), true, sim.Time(i), 0, 0)) // writes 100..107
	}
	var order []bool // true = write
	for r := s.Dequeue(0); r != nil; r = s.Dequeue(0) {
		order = append(order, r.Write)
	}
	if len(order) != 16 {
		t.Fatalf("dispatched %d, want 16", len(order))
	}
	// 3:1 read:write weighting — the first four dispatches are R,R,R,W.
	want := []bool{false, false, false, true}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("dispatch order %v does not follow 3:1 weighting", order[:4])
		}
	}
	writes := 0
	for _, w := range order[:8] {
		if w {
			writes++
		}
	}
	if writes != 2 {
		t.Fatalf("first 8 dispatches had %d writes, want 2 at 3:1", writes)
	}
}

func TestCFQDrainsWhenOneClassEmpty(t *testing.T) {
	s := New(Config{Policy: CFQ})
	for i := 0; i < 5; i++ {
		s.Enqueue(req(uint64(i), true, 0, 0, 0))
	}
	n := 0
	for s.Dequeue(0) != nil {
		n++
	}
	if n != 5 {
		t.Fatalf("drained %d writes, want 5", n)
	}
	if s.Dequeue(0) != nil {
		t.Fatal("empty CFQ returned a request")
	}
}
