package experiments

import (
	"encoding/json"
	"testing"
)

// replayJSON runs one experiment and returns its tables as JSON bytes,
// the same encoding cmd/rackbench -json writes.
func replayJSON(t *testing.T, id string) []byte {
	t.Helper()
	b, err := json.Marshal(mustTables(t, id, tiny))
	if err != nil {
		t.Fatalf("marshal %q: %v", id, err)
	}
	return b
}

// TestDeterministicReplay runs every registry entry marked replay twice
// with the same seed and asserts byte-identical JSON results. This pins
// the engine's (time, insertion-order) event ordering and the
// per-component RNG fork discipline (internal/sim/rng.go): any refactor
// that lets map iteration or wall-clock state leak into the event loop
// shows up here as a diff. The replayed cluster experiments cover the
// recovery-lifecycle paths (chunk repair, switch re-integration, ToR
// revival with table replay), the scenario event driver with server
// revival and catch-up repair, the SLO repair pacer, whose feedback loop
// (latency window, AIMD ticks, token-lane wakeups) is a rich source of
// ordering hazards, and the LRC code family — local-parity placement,
// rack-local XOR repair, and per-rack aggregated spine batches.
func TestDeterministicReplay(t *testing.T) {
	replayed := 0
	for _, e := range registry {
		if !e.replay {
			continue
		}
		replayed++
		first := replayJSON(t, e.ID)
		second := replayJSON(t, e.ID)
		if string(first) != string(second) {
			t.Errorf("%s: two same-seed runs produced different JSON\nfirst:  %.200s\nsecond: %.200s",
				e.ID, first, second)
		}
	}
	if replayed == 0 {
		t.Fatal("no registry entry is marked for replay")
	}
}
