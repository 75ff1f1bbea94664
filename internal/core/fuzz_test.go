package core

import (
	"errors"
	"testing"

	"rackblox/internal/sim"
)

// fuzzEvent decodes one 4-byte record into a scenario event: kind
// (modulo 6, so one value past the last real kind exercises the unknown
// branch), a signed index, and a signed coarse timestamp — negative
// times and out-of-range indices are exactly what the validator must
// reject gracefully.
func fuzzEvent(b []byte) Event {
	at := sim.Time(int16(uint16(b[2])<<8|uint16(b[3]))) * 100 * sim.Microsecond
	return Event{
		Kind:  EventKind(int(b[0]) % 6),
		Index: int(int8(b[1])),
		At:    at,
	}
}

// FuzzScenarioValidate drives the scenario-timeline validator with
// arbitrary event lists — orderings, duplicates, revive-without-fail,
// unknown kinds, negative times — and asserts it never panics and that
// every rejection is a typed *FailureSpecError whose message formats
// cleanly. A trailing partial record (1-3 leftover bytes) is ignored.
func FuzzScenarioValidate(f *testing.F) {
	// Seed corpus: the interesting accept/reject shapes.
	f.Add([]byte{0, 0, 0, 100})                            // one server crash
	f.Add([]byte{0, 0, 0, 100, 3, 0, 0, 200})              // fail then revive
	f.Add([]byte{0, 0, 0, 100, 3, 0, 0, 200, 0, 0, 1, 44}) // fail, heal, fail again
	f.Add([]byte{3, 0, 0, 100})                            // revive before fail
	f.Add([]byte{0, 0, 0, 100, 0, 0, 0, 200})              // double crash
	f.Add([]byte{1, 1, 0, 100, 2, 1, 0, 100})              // rack+tor same instant
	f.Add([]byte{2, 0, 0, 100, 4, 0, 0, 200, 2, 0, 1, 44}) // tor fail/heal/fail
	f.Add([]byte{0, 99, 0, 100})                           // out of range
	f.Add([]byte{0, 0, 255, 156})                          // negative time
	f.Add([]byte{5, 0, 0, 100})                            // unknown kind
	f.Add([]byte{1, 0, 0, 100, 3, 2, 0, 200})              // rack crash, revive one member
	f.Add([]byte{})                                        // empty timeline
	f.Add([]byte{0, 1, 0, 100, 0, 1, 0, 100})              // same server twice at one instant
	f.Add([]byte{1, 0, 0, 100, 0, 1, 0, 100})              // rack and its member at one instant
	f.Add([]byte{2, 1, 0, 100, 4, 1, 0, 100})              // revive-tor at the fail-tor instant
	f.Add([]byte{0, 253, 0, 100})                          // negative server index
	f.Add([]byte{0, 0, 0, 100, 3})                         // trailing partial record

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := DefaultConfig()
		cfg.Racks = 2
		cfg.StorageServers = 3
		for i := 0; i+4 <= len(data); i += 4 {
			cfg.Scenario = append(cfg.Scenario, fuzzEvent(data[i:i+4]))
		}
		err := cfg.Validate()
		if err == nil {
			return
		}
		var spec *FailureSpecError
		if !errors.As(err, &spec) {
			t.Fatalf("Validate rejection is not a *FailureSpecError: %v", err)
		}
		if spec.Error() == "" {
			t.Fatal("FailureSpecError formatted to an empty message")
		}
	})
}
