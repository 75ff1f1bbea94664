package sim

import "testing"

// TestPacedAdmitRespectsRate checks that admissions mature at the token
// refill rate: with an empty bucket, N equal admissions are granted at
// evenly spaced instants bytes/rate apart.
func TestPacedAdmitRespectsRate(t *testing.T) {
	eng := NewEngine()
	link := NewBandwidth(eng, 100e6)
	p := NewPacedBandwidth(eng, link, 1e6, 1000) // 1 MB/s refill, 1000-byte bucket

	// Drain the initial burst so the grant spacing is purely rate-driven.
	p.Admit(1000, func(Time) {})

	var grants []Time
	for i := 0; i < 3; i++ {
		p.Admit(1000, func(now Time) { grants = append(grants, now) })
	}
	eng.Run()
	// 1000 bytes at 1 MB/s = 1ms of refill per admission (+1ns rounding).
	want := []Time{Millisecond, 2 * Millisecond, 3 * Millisecond}
	if len(grants) != 3 {
		t.Fatalf("%d grants", len(grants))
	}
	for i, w := range want {
		if d := grants[i] - w; d < 0 || d > 5 {
			t.Errorf("grant %d at %d, want ~%d", i, grants[i], w)
		}
	}
}

// TestPacedBurstGrantsImmediately checks that a full bucket admits up to
// its capacity with no delay.
func TestPacedBurstGrantsImmediately(t *testing.T) {
	eng := NewEngine()
	link := NewBandwidth(eng, 100e6)
	p := NewPacedBandwidth(eng, link, 1e3, 4000)

	granted := 0
	for i := 0; i < 4; i++ {
		p.Admit(1000, func(now Time) {
			if now != 0 {
				t.Errorf("burst admission granted at %d, want 0", now)
			}
			granted++
		})
	}
	if granted != 4 {
		t.Fatalf("granted %d of 4 burst admissions synchronously", granted)
	}
}

// TestPacedOversizedAdmissionProgresses checks that an admission larger
// than the bucket is granted once the bucket fills (going into token
// debt) instead of starving forever.
func TestPacedOversizedAdmissionProgresses(t *testing.T) {
	eng := NewEngine()
	link := NewBandwidth(eng, 100e6)
	p := NewPacedBandwidth(eng, link, 1e6, 500) // bucket holds 500, admission wants 2000

	var grantedAt Time = -1
	p.Admit(1000, func(Time) {}) // spends the initial 500 and goes 500 into debt
	p.Admit(2000, func(now Time) { grantedAt = now })
	eng.Run()
	if grantedAt < 0 {
		t.Fatal("oversized admission never granted")
	}
	// Debt 500 + full bucket 500 = 1000 bytes of refill at 1 MB/s = 1ms.
	if grantedAt < Millisecond || grantedAt > Millisecond+2 {
		t.Errorf("oversized admission granted at %d, want ~%d", grantedAt, Millisecond)
	}
	if p.Queued() != 0 {
		t.Errorf("queue not drained: %d", p.Queued())
	}
}

// TestPacedSetRateRetunesPendingGrant checks that SetRate mid-wait
// recomputes the head admission's maturity: credit accrues at the old
// rate until the change and at the new rate after.
func TestPacedSetRateRetunesPendingGrant(t *testing.T) {
	eng := NewEngine()
	link := NewBandwidth(eng, 100e6)
	p := NewPacedBandwidth(eng, link, 1e6, 1000)
	p.Admit(1000, func(Time) {}) // empty the bucket

	var grantedAt Time = -1
	p.Admit(1000, func(now Time) { grantedAt = now })

	// At 0.5ms (500 bytes matured), crank the rate 10x: the remaining 500
	// bytes mature in 0.05ms instead of 0.5ms.
	eng.At(500*Microsecond, func(Time) { p.SetRate(10e6) })
	eng.Run()
	want := 550 * Microsecond
	if grantedAt < want || grantedAt > want+2 {
		t.Errorf("grant after rate change at %d, want ~%d", grantedAt, want)
	}
	if p.Rate() != 10e6 {
		t.Errorf("Rate = %f", p.Rate())
	}
}

// TestPacedConsumeSettlesDebtAndRefund checks post-grant settlement:
// extra bytes consumed after a grant delay the next admission's
// maturity (debt repaid by refill), and a refund matures a waiting head
// immediately.
func TestPacedConsumeSettlesDebtAndRefund(t *testing.T) {
	eng := NewEngine()
	link := NewBandwidth(eng, 100e6)
	p := NewPacedBandwidth(eng, link, 1e6, 1000) // 1 MB/s, 1000-byte bucket

	var first, second Time = -1, -1
	p.Admit(1000, func(now Time) {
		first = now
		p.Consume(2000) // the grant actually moved 3000 bytes, not 1000
	})
	p.Admit(1000, func(now Time) { second = now })
	eng.Run()
	if first != 0 {
		t.Fatalf("first grant at %d, want 0 (full bucket)", first)
	}
	// Debt 2000 + the admission's own 1000 = 3000 bytes of refill = 3ms.
	want := 3 * Millisecond
	if second < want || second > want+5 {
		t.Errorf("post-debt grant at %d, want ~%d", second, want)
	}

	// Refund: a waiting admission matures as soon as credit is returned.
	var third Time = -1
	p.Admit(1000, func(now Time) { third = now })
	at := eng.Now() + 100*Microsecond
	eng.At(at, func(Time) { p.Consume(-1000) })
	eng.Run()
	if third != at {
		t.Errorf("refunded grant at %d, want %d (the refund instant)", third, at)
	}
}

// TestPacedTransferSharesLink checks that a paced transfer — an
// admission whose grant reserves the underlying link — occupies the
// shared link, so paced and unpaced traffic serialize FIFO on the same
// capacity.
func TestPacedTransferSharesLink(t *testing.T) {
	eng := NewEngine()
	link := NewBandwidth(eng, 1e6) // 1 MB/s: 1000 bytes take 1ms
	p := NewPacedBandwidth(eng, link, 1e9, 1e6)

	var pacedEnd, fgEnd Time
	var delivered int64
	p.Admit(1000, func(Time) {
		link.Reserve(1000, EventFunc(func(end Time) {
			pacedEnd = end
			delivered += 1000
		}))
	})
	link.Transfer(1000, func(_, end Time) { // foreground, direct
		fgEnd = end
		delivered += 1000
	})
	eng.Run()
	if pacedEnd != Millisecond {
		t.Errorf("paced transfer ended at %d, want %d", pacedEnd, Millisecond)
	}
	if fgEnd != 2*Millisecond {
		t.Errorf("foreground transfer queued behind paced one ended at %d, want %d",
			fgEnd, 2*Millisecond)
	}
	if delivered != 2000 {
		t.Errorf("link delivered %d bytes, want 2000", delivered)
	}
}

// TestPacedRejectsBadConfig pins the constructor and SetRate panics.
func TestPacedRejectsBadConfig(t *testing.T) {
	eng := NewEngine()
	link := NewBandwidth(eng, 1e6)
	for name, fn := range map[string]func(){
		"zero rate":  func() { NewPacedBandwidth(eng, link, 0, 1) },
		"zero burst": func() { NewPacedBandwidth(eng, link, 1, 0) },
		"set zero":   func() { NewPacedBandwidth(eng, link, 1, 1).SetRate(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			fn()
		}()
	}
}
