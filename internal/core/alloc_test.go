package core

import (
	"runtime"
	"testing"

	"rackblox/internal/sim"
)

// TestRackSteadyStateAllocs is the datapath's allocation gate: once the
// pools have grown to the number of requests in flight, a request crosses
// client, ToR, server, flash and Hermes without heap allocations. Two
// runs of DefaultConfig that differ only in length share set-up, warm-up
// and the final Result, so the difference in their heap allocations per
// difference in completed requests is the steady-state cost of one
// request. Allocation counts are deterministic, unlike timings.
func TestRackSteadyStateAllocs(t *testing.T) {
	run := func(d sim.Time) (mallocs uint64, requests int64) {
		cfg := DefaultConfig()
		cfg.Warmup = 50 * sim.Millisecond
		cfg.Duration = d
		r, err := NewRack(cfg)
		if err != nil {
			t.Fatalf("NewRack: %v", err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r.Run()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, r.completedReads + r.completedWrites
	}
	shortMallocs, shortReqs := run(100 * sim.Millisecond)
	longMallocs, longReqs := run(400 * sim.Millisecond)
	if longReqs <= shortReqs {
		t.Fatalf("the longer run completed %d requests, the shorter %d", longReqs, shortReqs)
	}
	perReq := float64(longMallocs-shortMallocs) / float64(longReqs-shortReqs)
	t.Logf("%.3f heap allocations per completed request (%d more requests)", perReq, longReqs-shortReqs)
	if perReq > 4 {
		t.Errorf("steady state allocates %.2f objects per completed request, want at most 4", perReq)
	}
}
