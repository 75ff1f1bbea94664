// Package trace is an observerpure fixture: reads of engine state and
// writes to the observer's own accumulators are fine; anything that
// could perturb the simulation is a finding.
package trace

import (
	"rackblox/internal/core"
	"rackblox/internal/sim"
)

// Recorder is an observer with its own state.
type Recorder struct {
	Samples []int64
	ticks   int
}

// Observe reads the engine's read-only surface and accumulates locally —
// the entire sanctioned repertoire.
func (r *Recorder) Observe(eng *sim.Engine, s *core.GCState) {
	r.Samples = append(r.Samples, int64(eng.Now()))
	r.ticks++
	_ = eng.Pending()
	_ = eng.Processed()
	_ = eng.ProcessedBy()
	if s.Open { // reading component state is fine; writing is not
		r.ticks++
	}
}

var labelFlush = sim.NewLabel("trace.flush")

func (r *Recorder) impure(eng *sim.Engine, s *core.GCState, rng *sim.RNG) {
	eng.AfterNamed(1, "trace.flush", func(sim.Time) {})           // want "observer code calls Engine.AfterNamed"
	eng.At(1, func(sim.Time) {})                                  // want "observer code calls Engine.At"
	eng.Schedule(1, labelFlush, sim.EventFunc(func(sim.Time) {})) // want "observer code calls Engine.Schedule"
	eng.SetTick(10, func(sim.Time) {})                            // want "observer code calls Engine.SetTick"
	core.Tick(s)                                                  // want "observer code calls core.Tick"
	s.Count++                                                     // want "observer code writes core.Count"
	s.Open = true                                                 // want "observer code writes core.Open"
	_ = rng.Intn(2)                                               // want "observer code draws from sim.RNG"
}
