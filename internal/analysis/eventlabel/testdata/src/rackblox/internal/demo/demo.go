// Package demo is an eventlabel fixture: unlabeled and string-labeled
// schedules and misplaced or non-constant label declarations are
// findings; label handles declared at package scope, and
// directive-escaped calls, are not.
package demo

import "rackblox/internal/sim"

var (
	labelWork  = sim.NewLabel("demo.work")
	labelEmpty = sim.NewLabel("")     // want "empty name"
	labelDyn   = sim.NewLabel(pick()) // want "constant label name"
)

func schedule(eng *sim.Engine, g *sim.ShardGroup) {
	eng.Schedule(5, labelWork, sim.EventFunc(func(sim.Time) {}))
	eng.ScheduleAfter(5, labelWork, sim.EventFunc(func(sim.Time) {}))
	g.Post(0, 1, 5, labelWork, sim.EventFunc(func(sim.Time) {}))
	eng.SetTick(10, func(sim.Time) {})
	_, _ = labelEmpty, labelDyn
}

func unlabeled(eng *sim.Engine) {
	eng.At(5, func(sim.Time) {})    // want "unlabeled Engine.At call"
	eng.After(5, func(sim.Time) {}) // want "unlabeled Engine.After call"
}

// String-named forms resolve the label on every call, constant or not.
func stringNamed(eng *sim.Engine, g *sim.ShardGroup, label string) {
	eng.AtNamed(5, "demo.work", func(sim.Time) {})   // want "Engine.AtNamed resolves its label by name"
	eng.AfterNamed(5, label, func(sim.Time) {})      // want "Engine.AfterNamed resolves its label by name"
	g.Send(0, 1, 5, "demo.cross", func(sim.Time) {}) // want "ShardGroup.Send resolves its label by name"
}

// A label declared inside a function is resolved per call.
func lateLabel(eng *sim.Engine) {
	eng.Schedule(5, sim.NewLabel("demo.late"), sim.EventFunc(func(sim.Time) {})) // want "inside a function"
}

func pick() string { return "demo.pick" }

// The directive opts out deliberate exceptions, end-of-line or own-line.
func escaped(eng *sim.Engine) {
	eng.After(5, func(sim.Time) {}) //rackvet:unlabeled prototype scaffolding, intentionally bucketed under other
	//rackvet:unlabeled own-line placement works too
	eng.AtNamed(5, "demo.proto", func(sim.Time) {})
}

// A bare directive still suppresses the schedule finding, but is itself
// a finding: the rationale is where the human's proof lives.
func bareEscape(eng *sim.Engine) {
	//rackvet:unlabeled // want "bare //rackvet:unlabeled directive"
	eng.After(5, func(sim.Time) {})
}
