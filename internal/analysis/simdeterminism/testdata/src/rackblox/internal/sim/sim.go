// Package sim is a miniature of the real engine: just enough surface for
// the analyzers' receiver-type matching, with the real engine's
// scheduling API: Schedule and Post take label handles, and the
// string-named forms delegate to them.
package sim

// Time is virtual simulation time in nanoseconds.
type Time int64

// Handler is an event's callback.
type Handler interface{ Fire(now Time) }

// EventFunc is an event handler.
type EventFunc func(now Time)

func (f EventFunc) Fire(now Time) { f(now) }

// Label is a handle to an interned handler label.
type Label struct{ id int32 }

var names = []string{"other"}

func NewLabel(name string) Label { return labelFor(name) }

func labelFor(name string) Label {
	names = append(names, name)
	return Label{int32(len(names) - 1)}
}

// Engine is the fixture engine.
type Engine struct {
	now Time
}

func (e *Engine) Now() Time { return e.now }

func (e *Engine) Pending() int { return 0 }

func (e *Engine) Processed() uint64 { return 0 }

func (e *Engine) ProcessedBy() map[string]uint64 { return nil }

func (e *Engine) Schedule(t Time, l Label, h Handler) { _, _ = l, h }

func (e *Engine) ScheduleAfter(d Time, l Label, h Handler) { e.Schedule(e.now+d, l, h) }

func (e *Engine) At(t Time, fn EventFunc) { e.AtNamed(t, "", fn) }

func (e *Engine) AtNamed(t Time, label string, fn EventFunc) { e.Schedule(t, labelFor(label), fn) }

func (e *Engine) After(d Time, fn EventFunc) { e.AfterNamed(d, "", fn) }

func (e *Engine) AfterNamed(d Time, label string, fn EventFunc) { e.AtNamed(e.now+d, label, fn) }

func (e *Engine) SetTick(interval Time, fn func(at Time)) { _ = fn }

// ShardGroup is the fixture shard group.
type ShardGroup struct{ engines []*Engine }

func (g *ShardGroup) Post(src, dst int, at Time, l Label, h Handler) {
	g.engines[dst].Schedule(at, l, h)
}

func (g *ShardGroup) Send(src, dst int, at Time, label string, fn EventFunc) {
	g.Post(src, dst, at, labelFor(label), fn)
}

// PacedBandwidth is the fixture token-bucket pacer. Every admission
// path, and every call that settles or retunes the bucket, pumps the
// queue, whose wakeups are scheduled events.
type PacedBandwidth struct {
	eng  *Engine
	wake func(Time)
}

func (p *PacedBandwidth) Admit(bytes int64, grant func(now Time)) {
	p.AdmitHandler(bytes, EventFunc(grant))
}

func (p *PacedBandwidth) AdmitHandler(bytes int64, grant Handler) {
	_, _ = bytes, grant
	p.pump()
}

func (p *PacedBandwidth) SetRate(rateBytesPerSec float64) {
	_ = rateBytesPerSec
	p.pump()
}

func (p *PacedBandwidth) Consume(deltaBytes int64) {
	_ = deltaBytes
	p.pump()
}

func (p *PacedBandwidth) pump() { p.eng.ScheduleAfter(0, labelFor("paced.wake"), EventFunc(p.wake)) }

// RNG is the fixture per-component random stream.
type RNG struct{ state uint64 }

func NewRNG(seed int64) *RNG { return &RNG{state: uint64(seed)} }

func (r *RNG) Intn(n int) int { return int(r.state) % n }

func (r *RNG) Int63n(n int64) int64 { return int64(r.state) % n }
