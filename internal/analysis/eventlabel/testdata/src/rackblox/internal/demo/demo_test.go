// Test files may schedule unlabeled events and resolve labels freely. No
// want comments.
package demo

import "rackblox/internal/sim"

func kickoffForTest(eng *sim.Engine) {
	eng.At(1, func(sim.Time) {})
	eng.After(1, func(sim.Time) {})
	eng.AtNamed(1, "test.kick", func(sim.Time) {})
	eng.Schedule(1, sim.NewLabel("test.kick"), sim.EventFunc(func(sim.Time) {}))
}
