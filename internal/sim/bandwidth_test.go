package sim

import (
	"testing"
	"testing/quick"
)

func TestBandwidthTransferTime(t *testing.T) {
	eng := NewEngine()
	bw := NewBandwidth(eng, 100e6) // 100 MB/s
	if got := bw.TransferTime(100e6); got != Second {
		t.Fatalf("100MB at 100MB/s = %d ns, want 1s", got)
	}
	if got := bw.TransferTime(0); got != 0 {
		t.Fatalf("zero bytes took %d ns", got)
	}
}

func TestBandwidthSerializesTransfers(t *testing.T) {
	eng := NewEngine()
	bw := NewBandwidth(eng, 1e6) // 1 MB/s => 1 byte/us
	var ends []Time
	var delivered int64
	for i := 0; i < 3; i++ {
		bw.Transfer(1000, func(_, end Time) {
			ends = append(ends, end)
			delivered += 1000
		})
	}
	eng.Run()
	// Three 1ms transfers serialize: ends at 1, 2, 3 ms.
	want := []Time{Millisecond, 2 * Millisecond, 3 * Millisecond}
	if len(ends) != 3 {
		t.Fatalf("%d completions", len(ends))
	}
	for i, w := range want {
		if ends[i] != w {
			t.Fatalf("transfer %d ended at %d, want %d", i, ends[i], w)
		}
	}
	if delivered != 3000 {
		t.Fatalf("delivered %d bytes, want 3000", delivered)
	}
	// The link was busy the whole 3ms: utilization 1.
	if u := bw.Utilization(); u < 0.99 || u > 1.01 {
		t.Fatalf("utilization = %f", u)
	}
}

// Regression (PR 7): TransferTime truncated float64(bytes)/rate*1e9
// toward zero, shaving a sub-nanosecond sliver off every transfer. At a
// rate like 3 B/s each 1-byte transfer occupied 333333333ns instead of
// the true 333333333.3..., so back-to-back transfers delivered MORE
// bytes per elapsed time than the configured capacity — breaking the
// invariant the repair pacer and the cross-rack figures rely on.
func TestBandwidthNeverExceedsConfiguredRate(t *testing.T) {
	eng := NewEngine()
	const capacity = 3 // B/s: per-byte time is a repeating fraction
	bw := NewBandwidth(eng, capacity)
	var lastEnd Time
	var delivered int64
	for i := 0; i < 100; i++ {
		bw.Transfer(1, func(_, end Time) {
			lastEnd = end
			delivered++
		})
	}
	eng.Run()
	if lastEnd == 0 {
		t.Fatal("no transfer completed")
	}
	rate := float64(delivered) / (float64(lastEnd) / float64(Second))
	if rate > capacity {
		t.Fatalf("delivered %.12f B/s over a %d B/s link", rate, capacity)
	}
}

// Regression (PR 7): a transfer small enough that bytes/rate rounded to
// under a nanosecond used to occupy the link for 0ns — free bandwidth.
// Any positive byte count must occupy at least one nanosecond.
func TestBandwidthTinyTransferOccupiesLink(t *testing.T) {
	eng := NewEngine()
	bw := NewBandwidth(eng, 1e12) // 1 TB/s: one byte is a picosecond
	if got := bw.TransferTime(1); got < 1 {
		t.Fatalf("1 byte at 1TB/s occupies %dns, want >= 1", got)
	}
}

// Property: for any rate and any sequence of transfer sizes, the bytes a
// drained link reports delivered never exceed capacity x elapsed time.
func TestBandwidthRateBoundProperty(t *testing.T) {
	f := func(rateSeed uint16, sizes []uint16) bool {
		eng := NewEngine()
		rate := float64(rateSeed%997) + 0.5 // 0.5 .. 996.5 B/s
		bw := NewBandwidth(eng, rate)
		var lastEnd Time
		var delivered int64
		any := false
		for _, s := range sizes {
			if s == 0 {
				continue
			}
			any = true
			bytes := int64(s)
			bw.Transfer(bytes, func(_, end Time) {
				lastEnd = end
				delivered += bytes
			})
		}
		eng.Run()
		if !any {
			return true
		}
		return float64(delivered) <= rate*float64(lastEnd)/float64(Second)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBandwidthRejectsNonPositiveRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-rate link accepted")
		}
	}()
	NewBandwidth(NewEngine(), 0)
}
