package sim

// Resource models a serial device (a flash channel, a NIC, a switch port):
// at most one operation is in service at a time and waiters are served in
// FIFO order of Reserve calls.
//
// Reserve books the resource for dur nanoseconds starting at the earliest
// instant the resource is free, and schedules done at the end.
// This "reservation" style keeps queueing implicit and cheap; components
// that need reorderable queues (the storage I/O schedulers) keep their own
// explicit queues and only Reserve at dispatch time.
type Resource struct {
	eng       *Engine
	busyUntil Time
	// busy tracks cumulative busy time, for utilization reporting.
	busy Time
}

// NewResource returns an idle serial resource bound to eng.
func NewResource(eng *Engine) *Resource {
	if eng == nil {
		panic("sim: NewResource with nil engine")
	}
	return &Resource{eng: eng}
}

// FreeAt returns the earliest time the resource becomes idle.
func (r *Resource) FreeAt() Time {
	if r.busyUntil < r.eng.Now() {
		return r.eng.Now()
	}
	return r.busyUntil
}

// Idle reports whether the resource is free right now.
func (r *Resource) Idle() bool { return r.busyUntil <= r.eng.Now() }

// Utilization returns cumulative busy time divided by elapsed time.
func (r *Resource) Utilization() float64 {
	if r.eng.Now() == 0 {
		return 0
	}
	b := r.busy
	if r.busyUntil > r.eng.Now() {
		// Do not count reserved-but-future time.
		b -= r.busyUntil - r.eng.Now()
	}
	return float64(b) / float64(r.eng.Now())
}

// labelResource counts the completions Reserve schedules.
var labelResource = NewLabel("resource")

// Reserve reserves the resource for dur, returns the reservation window,
// and fires done at its end. done may be nil when only the reservation
// matters.
func (r *Resource) Reserve(dur Time, done Handler) (start, end Time) {
	if dur < 0 {
		panic("sim: negative duration")
	}
	start = r.FreeAt()
	end = start + dur
	r.busyUntil = end
	r.busy += dur
	if done != nil {
		r.eng.Schedule(end, labelResource, done)
	}
	return start, end
}

// Acquire is Reserve with a callback that receives the reservation
// window: done(start, end) runs at end. done may be nil. The adapter
// costs one allocation per call; hot paths pass a pooled Handler to
// Reserve instead.
func (r *Resource) Acquire(dur Time, done func(start, end Time)) (start, end Time) {
	if done == nil {
		return r.Reserve(dur, nil)
	}
	w := &window{done: done}
	w.start, w.end = r.Reserve(dur, w)
	return w.start, w.end
}

// window hands a reservation window to an Acquire or Transfer callback.
type window struct {
	start, end Time
	done       func(start, end Time)
}

func (w *window) Fire(Time) { w.done(w.start, w.end) }

// Block extends the busy period through at least t, without an operation.
// Used to model garbage collection occupying a channel.
func (r *Resource) Block(until Time) {
	if until > r.busyUntil {
		if r.busyUntil < r.eng.Now() {
			r.busy += until - r.eng.Now()
		} else {
			r.busy += until - r.busyUntil
		}
		r.busyUntil = until
	}
}
