package sim

import (
	"sync"
	"sync/atomic"
)

// Label is a handle to an interned handler label, the bucket an event is
// counted under in Engine.ProcessedBy. Simulation packages declare their
// labels once, at package scope:
//
//	var labelDeliver = sim.NewLabel("net.deliver")
//
// so scheduling an event costs an integer copy rather than a string map
// lookup. The zero Label is "other", the bucket of unlabeled events.
type Label struct{ id int32 }

// labelTable is one immutable version of the process-wide label
// registry. The registry is append-only: a name, once registered, keeps
// its id for the life of the process, so engines index their per-label
// counters by id and Labels stay valid across engines and shards.
type labelTable struct {
	names []string
	ids   map[string]int32
}

// labels holds the current table. Readers load it without locking — the
// string-named scheduling forms resolve a name on every call, from shard
// goroutines too — and registration copies it under labelsMu. It is set
// in its initializer, not in init, because package-level NewLabel calls
// run before init functions.
var (
	labels = func() *atomic.Pointer[labelTable] {
		p := new(atomic.Pointer[labelTable])
		p.Store(&labelTable{names: []string{"other"}, ids: map[string]int32{"other": 0}})
		return p
	}()
	labelsMu sync.Mutex
)

// NewLabel returns the handle of the label called name, registering it on
// first use. Calling it again with the same name returns the same handle.
// name must be non-empty; rackvet's eventlabel check requires a constant
// name at package scope.
func NewLabel(name string) Label {
	if name == "" {
		panic("sim: empty event label")
	}
	return labelFor(name)
}

// labelFor resolves a label name, mapping the empty name to "other" as the
// string-named scheduling forms always have.
func labelFor(name string) Label {
	if name == "" {
		return Label{}
	}
	if id, ok := labels.Load().ids[name]; ok {
		return Label{id}
	}
	labelsMu.Lock()
	defer labelsMu.Unlock()
	t := labels.Load()
	if id, ok := t.ids[name]; ok {
		return Label{id}
	}
	id := int32(len(t.names))
	next := &labelTable{
		names: append(t.names[:len(t.names):len(t.names)], name),
		ids:   make(map[string]int32, len(t.ids)+1),
	}
	for n, i := range t.ids {
		next.ids[n] = i
	}
	next.ids[name] = id
	labels.Store(next)
	return Label{id}
}

// countsByName folds per-label-id event counts into out by name, skipping
// zero counts.
func countsByName(counts []uint64, out map[string]uint64) {
	names := labels.Load().names
	for id, c := range counts {
		if c > 0 {
			out[names[id]] += c
		}
	}
}
