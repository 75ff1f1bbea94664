// Package sched implements the storage I/O schedulers evaluated in §4.5.1:
// no-op (FIFO), Deadline, and Kyber, plus RackBlox's coordinated variants
// that reorder each queue by the end-to-end priority
//
//	Prio_sched = Net_time + Storage_time + Predict_time   (§3.4)
//
// picking the request with the maximum accumulated and predicted latency
// first. Because Storage_time = now - arrival and "now" is shared by every
// queued request at dispatch, ordering by the static key
// Net_time + Predict_time - arrival is equivalent and cheaper.
package sched

import (
	"container/heap"
	"fmt"

	"rackblox/internal/sim"
)

// Policy selects the base scheduling algorithm.
type Policy int

const (
	// FIFO is Linux's no-op scheduler, the NVMe default.
	FIFO Policy = iota
	// Deadline splits reads and writes and promotes expired requests.
	Deadline
	// Kyber splits reads and writes and throttles writes to protect the
	// read latency target.
	Kyber
	// CFQ approximates completely-fair queueing [17 in the paper]:
	// read and write classes receive alternating dispatch quanta in
	// proportion to configurable weights.
	CFQ
)

func (p Policy) String() string {
	switch p {
	case FIFO:
		return "FIFO"
	case Deadline:
		return "Deadline"
	case Kyber:
		return "Kyber"
	case CFQ:
		return "CFQ"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Request is one storage request in the I/O queue of the storage stack.
type Request struct {
	Seq     uint64
	Write   bool
	Arrival sim.Time
	// NetTime is the INT-measured inbound network latency (§3.4).
	NetTime sim.Time
	// Predict is the predicted return latency from the sliding window.
	Predict sim.Time
}

// prioKey is the static part of Prio_sched (see the package comment).
func (r *Request) prioKey() sim.Time { return r.NetTime + r.Predict - r.Arrival }

// Config configures a scheduler instance.
type Config struct {
	Policy Policy
	// Coordinated enables RackBlox's network-aware in-queue reordering.
	Coordinated bool
}

// Paper defaults (§4.1, §4.5.1).
const (
	DeadlineReadTarget       = 500 * sim.Microsecond
	DeadlineWriteTarget      = 1750 * sim.Microsecond
	CoordDeadlineReadTarget  = 1500 * sim.Microsecond
	CoordDeadlineWriteTarget = 2750 * sim.Microsecond
	KyberReadTarget          = 750 * sim.Microsecond
	KyberWriteTarget         = 3 * sim.Millisecond
	CoordKyberReadTarget     = 1750 * sim.Microsecond
	CoordKyberWriteTarget    = 4 * sim.Millisecond
)

// targets returns the per-class latency goals of the policy: deadlines
// for Deadline, throttling targets for Kyber, larger when coordinated
// (§4.1). Other policies have none.
func (c Config) targets() (read, write sim.Time) {
	switch c.Policy {
	case Deadline:
		if c.Coordinated {
			return CoordDeadlineReadTarget, CoordDeadlineWriteTarget
		}
		return DeadlineReadTarget, DeadlineWriteTarget
	case Kyber:
		if c.Coordinated {
			return CoordKyberReadTarget, CoordKyberWriteTarget
		}
		return KyberReadTarget, KyberWriteTarget
	}
	return 0, 0
}

// Scheduler orders the storage I/O queue.
type Scheduler interface {
	// Enqueue adds a request to the queue.
	Enqueue(r *Request)
	// Dequeue removes and returns the next request to dispatch at now,
	// or nil when nothing is dispatchable (empty or throttled).
	Dequeue(now sim.Time) *Request
	// OnComplete feeds back a completed request's storage latency.
	OnComplete(write bool, storageLatency sim.Time)
	// Len returns the number of queued requests.
	Len() int
}

// New builds a scheduler for the configuration.
func New(cfg Config) Scheduler {
	switch cfg.Policy {
	case FIFO:
		return newFIFO(cfg)
	case Deadline:
		return newDeadline(cfg)
	case Kyber:
		return newKyber(cfg)
	case CFQ:
		return newCFQ(cfg)
	default:
		panic(fmt.Sprintf("sched: unknown policy %d", cfg.Policy))
	}
}

// queue is a reorderable request queue: FIFO by arrival, or max-Prio_sched
// when coordinated.
type queue struct {
	items       []*Request
	coordinated bool
}

func (q *queue) Len() int { return len(q.items) }
func (q *queue) Less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if q.coordinated {
		if a.prioKey() != b.prioKey() {
			return a.prioKey() > b.prioKey() // max accumulated latency first
		}
		return a.Arrival < b.Arrival
	}
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	return a.Seq < b.Seq
}
func (q *queue) Swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
}
func (q *queue) Push(x interface{}) {
	r := x.(*Request)
	q.items = append(q.items, r)
}
func (q *queue) Pop() interface{} {
	old := q.items
	n := len(old)
	r := old[n-1]
	q.items = old[:n-1]
	return r
}

func (q *queue) push(r *Request) { heap.Push(q, r) }
func (q *queue) pop() *Request {
	if len(q.items) == 0 {
		return nil
	}
	return heap.Pop(q).(*Request)
}

// oldestArrival returns the earliest arrival in the queue (linear scan;
// queues are small and this only runs for Deadline's expiry check).
func (q *queue) oldestArrival() (sim.Time, bool) {
	if len(q.items) == 0 {
		return 0, false
	}
	min := q.items[0].Arrival
	for _, r := range q.items[1:] {
		if r.Arrival < min {
			min = r.Arrival
		}
	}
	return min, true
}
