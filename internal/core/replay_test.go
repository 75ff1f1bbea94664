package core

import (
	"encoding/json"
	"testing"

	"rackblox/internal/sim"
	"rackblox/internal/stats"
)

// runJSON builds a rack, runs it, and returns the full Result as JSON —
// the byte-level identity the determinism invariant promises.
func runJSON(t *testing.T, sys System, seed int64) []byte {
	t.Helper()
	cfg := shortConfig(sys)
	cfg.Seed = seed
	return runBytes(t, cfg)
}

// runBytes runs cfg and returns the Result as JSON followed by every
// latency sample, which the Recorder does not marshal: a reordered
// completion can move samples without changing any aggregate.
func runBytes(t *testing.T, cfg Config) []byte {
	t.Helper()
	r, err := NewRack(cfg)
	if err != nil {
		t.Fatalf("NewRack: %v", err)
	}
	res := r.Run()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	samples, err := json.Marshal(stats.RawSamples(res.Recorder))
	if err != nil {
		t.Fatalf("marshal samples: %v", err)
	}
	return append(b, samples...)
}

// TestReplayByteIdentical runs the same configuration twice for several
// seeds and systems and asserts byte-identical Result JSON. The
// experiments package has the same check at figure granularity; this one
// sits at the core layer so a determinism regression is caught next to
// the code that introduced it. Together with rackvet's simdeterminism
// check (which proves no map iteration order can reach the event loop
// statically) it pins the invariant from both sides.
func TestReplayByteIdentical(t *testing.T) {
	for _, sys := range []System{VDC, RackBlox} {
		for _, seed := range []int64{1, 7, 42} {
			first := runJSON(t, sys, seed)
			second := runJSON(t, sys, seed)
			if string(first) != string(second) {
				t.Errorf("%v seed %d: two same-seed runs diverged\nfirst:  %.200s\nsecond: %.200s",
					sys, seed, first, second)
			}
		}
	}
	// A replicated server crash: the survivor's Hermes node drops the dead
	// peer and commits every write still waiting for its ack. Each commit
	// schedules a response and draws network randomness, so the commits
	// must run in a fixed order, not in map order.
	cfg := DefaultConfig()
	cfg.Seed = 3
	cfg.Duration = 2 * sim.Second
	cfg.Scenario = []Event{FailServer(1, 700*sim.Millisecond)}
	var first []byte
	for i := 0; i < 4; i++ {
		b := runBytes(t, cfg)
		if i == 0 {
			first = b
		} else if string(b) != string(first) {
			t.Fatalf("server crash, run %d: same-seed runs diverged\nfirst: %.200s\nthis:  %.200s",
				i, first, b)
		}
	}
}
