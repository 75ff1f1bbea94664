package core

import (
	"fmt"
	"sort"
	"time"

	"rackblox/internal/sim"
)

// Scenario timeline API: the failure-injection surface of a run is one
// typed, ordered event schedule (Config.Scenario). Each event carries
// its own instant, so a single run can express server revival with
// catch-up repair, repeated fail/heal cycles, and staggered rack and ToR
// outages. validateScenario checks the timeline as a whole and one
// driver (Rack.scheduleScenario) executes it.

// EventKind enumerates the typed scenario events.
type EventKind int

const (
	// EventFailServer crashes one storage server: its traffic is failed
	// over to survivors after heartbeat detection, and erasure-coded
	// chunks it held are queued for background reconstruction.
	EventFailServer EventKind = iota
	// EventFailRack crashes every server of one rack fault domain
	// (whole-rack power loss).
	EventFailRack
	// EventFailToR darkens one rack's ToR switch: servers stay alive but
	// unreachable; no data is lost.
	EventFailToR
	// EventReviveServer brings a crashed server back with blank DRAM and
	// flash: every chunk holder it hosted is rebuilt from scratch by the
	// metered reconstructor and re-registered under its own id when the
	// last chunk lands (switchsim.RestoreStripeMember); replicated
	// instances re-pair with their survivors (Hermes AddPeer).
	EventReviveServer
	// EventReviveToR un-darkens a failed ToR: blank SRAM, control-plane
	// table replay from survivors, sibling marks cleared
	// (Rack.ReviveToR).
	EventReviveToR
)

func (k EventKind) String() string {
	switch k {
	case EventFailServer:
		return "fail-server"
	case EventFailRack:
		return "fail-rack"
	case EventFailToR:
		return "fail-tor"
	case EventReviveServer:
		return "revive-server"
	case EventReviveToR:
		return "revive-tor"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// fails reports whether the kind injects a failure (as opposed to a
// recovery).
func (k EventKind) fails() bool {
	return k == EventFailServer || k == EventFailRack || k == EventFailToR
}

// Event is one entry of a scenario timeline: a typed fault or recovery
// action applied to a server or rack index at its own instant.
type Event struct {
	Kind  EventKind
	Index int
	At    sim.Time
}

func (e Event) String() string {
	return fmt.Sprintf("%s:%d@%s", e.Kind, e.Index, time.Duration(e.At))
}

// FailServer schedules a crash of global server idx at time at.
func FailServer(idx int, at sim.Time) Event {
	return Event{Kind: EventFailServer, Index: idx, At: at}
}

// FailRack schedules a whole-rack crash of rack idx at time at.
func FailRack(idx int, at sim.Time) Event {
	return Event{Kind: EventFailRack, Index: idx, At: at}
}

// FailToR schedules a ToR-switch failure of rack idx at time at.
func FailToR(idx int, at sim.Time) Event {
	return Event{Kind: EventFailToR, Index: idx, At: at}
}

// ReviveServer schedules the revival of crashed server idx at time at.
func ReviveServer(idx int, at sim.Time) Event {
	return Event{Kind: EventReviveServer, Index: idx, At: at}
}

// ReviveToR schedules the revival of rack idx's failed ToR at time at.
func ReviveToR(idx int, at sim.Time) Event {
	return Event{Kind: EventReviveToR, Index: idx, At: at}
}

// validateScenario checks the timeline as a whole, walking the events
// in time order with the cluster state they would produce: indices must
// be in range, a down server or ToR cannot fail again before it is
// revived, a revival must name something that is down and come strictly
// after its failure, and crashing a rack's servers while darkening the
// same rack's ToR at one instant — double-booking one fault domain — is
// rejected. Every rejection is a typed *FailureSpecError.
func (c *Config) validateScenario() error {
	if len(c.Scenario) == 0 {
		return nil
	}
	order := append([]Event(nil), c.Scenario...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].At < order[j].At })

	total := c.totalServers()
	racks := c.racks()
	serverDownAt := make(map[int]sim.Time)
	torDownAt := make(map[int]sim.Time)
	rackCrashAt := make(map[int]sim.Time)
	badIndex := func(ev Event, n int) error {
		return &FailureSpecError{Field: "Scenario", Index: ev.Index,
			Reason: fmt.Sprintf("%s index out of range [0,%d)", ev.Kind, n)}
	}
	for _, ev := range order {
		if ev.At < 0 {
			return &FailureSpecError{Field: "Scenario", Index: ev.Index,
				Reason: fmt.Sprintf("%s scheduled at negative time %d", ev.Kind, ev.At)}
		}
		switch ev.Kind {
		case EventFailServer:
			if ev.Index < 0 || ev.Index >= total {
				return badIndex(ev, total)
			}
			if _, down := serverDownAt[ev.Index]; down {
				return &FailureSpecError{Field: "Scenario", Index: ev.Index,
					Reason: "server is already down at this point; it can only crash again after a revive-server"}
			}
			serverDownAt[ev.Index] = ev.At
		case EventFailRack:
			if ev.Index < 0 || ev.Index >= racks {
				return badIndex(ev, racks)
			}
			if at, down := torDownAt[ev.Index]; down && at == ev.At {
				return &FailureSpecError{Field: "Scenario", Index: ev.Index,
					Reason: "fail-rack double-books the fault domain fail-tor darkens at the same instant"}
			}
			for i := ev.Index * c.StorageServers; i < (ev.Index+1)*c.StorageServers; i++ {
				if _, down := serverDownAt[i]; down {
					return &FailureSpecError{Field: "Scenario", Index: ev.Index,
						Reason: fmt.Sprintf("fail-rack covers server %d, which is already down at this point", i)}
				}
				serverDownAt[i] = ev.At
			}
			rackCrashAt[ev.Index] = ev.At
		case EventFailToR:
			if ev.Index < 0 || ev.Index >= racks {
				return badIndex(ev, racks)
			}
			if _, down := torDownAt[ev.Index]; down {
				return &FailureSpecError{Field: "Scenario", Index: ev.Index,
					Reason: "ToR is already dark at this point; it can only fail again after a revive-tor"}
			}
			if at, crashed := rackCrashAt[ev.Index]; crashed && at == ev.At {
				return &FailureSpecError{Field: "Scenario", Index: ev.Index,
					Reason: "fail-tor double-books the fault domain fail-rack crashes at the same instant"}
			}
			torDownAt[ev.Index] = ev.At
		case EventReviveServer:
			if ev.Index < 0 || ev.Index >= total {
				return badIndex(ev, total)
			}
			at, down := serverDownAt[ev.Index]
			if !down {
				return &FailureSpecError{Field: "Scenario", Index: ev.Index,
					Reason: "revive-server names a server that is not down at this point (revive-before-fail)"}
			}
			if ev.At <= at {
				return &FailureSpecError{Field: "Scenario", Index: ev.Index,
					Reason: "revive-server must come strictly after the crash it undoes"}
			}
			delete(serverDownAt, ev.Index)
		case EventReviveToR:
			if ev.Index < 0 || ev.Index >= racks {
				return badIndex(ev, racks)
			}
			at, down := torDownAt[ev.Index]
			if !down {
				return &FailureSpecError{Field: "Scenario", Index: ev.Index,
					Reason: "revive-tor names a ToR that is not dark at this point (revive-before-fail)"}
			}
			if ev.At <= at {
				return &FailureSpecError{Field: "Scenario", Index: ev.Index,
					Reason: "revive-tor must come strictly after the ToR failure it undoes"}
			}
			delete(torDownAt, ev.Index)
		default:
			return &FailureSpecError{Field: "Scenario", Index: int(ev.Kind),
				Reason: "unknown event kind"}
		}
	}
	return nil
}
