package sched

import (
	"rackblox/internal/sim"
	"rackblox/internal/stats"
)

// fifo is a single queue: arrival order, or Prio_sched order when
// coordinated ("RackBlox (FIFO)").
type fifo struct {
	q queue
}

func newFIFO(cfg Config) *fifo {
	return &fifo{q: queue{coordinated: cfg.Coordinated}}
}

func (f *fifo) Enqueue(r *Request)            { f.q.push(r) }
func (f *fifo) Dequeue(now sim.Time) *Request { return f.q.pop() }
func (f *fifo) OnComplete(bool, sim.Time)     {}
func (f *fifo) Len() int                      { return f.q.Len() }

// deadline splits reads and writes; requests whose queueing delay exceeds
// their class deadline are promoted, with expired writes served ahead of
// fresh reads (reads are otherwise preferred, as in Linux's mq-deadline).
type deadline struct {
	reads, writes           queue
	readTarget, writeTarget sim.Time
}

func newDeadline(cfg Config) *deadline {
	d := &deadline{
		reads:  queue{coordinated: cfg.Coordinated},
		writes: queue{coordinated: cfg.Coordinated},
	}
	d.readTarget, d.writeTarget = cfg.targets()
	return d
}

func (d *deadline) Enqueue(r *Request) {
	if r.Write {
		d.writes.push(r)
	} else {
		d.reads.push(r)
	}
}

func (d *deadline) Dequeue(now sim.Time) *Request {
	wOldest, wOK := d.writes.oldestArrival()
	writeExpired := wOK && now-wOldest >= d.writeTarget
	if writeExpired {
		// An expired write preempts fresh reads; expired reads still win
		// over expired writes (read latency is the primary SLO).
		rOldest, rOK := d.reads.oldestArrival()
		if rOK && now-rOldest >= d.readTarget {
			return d.reads.pop()
		}
		return d.writes.pop()
	}
	if r := d.reads.pop(); r != nil {
		return r
	}
	return d.writes.pop()
}

func (d *deadline) OnComplete(bool, sim.Time) {}
func (d *deadline) Len() int                  { return d.reads.Len() + d.writes.Len() }

// kyber splits reads and writes and adapts a write-dispatch budget from
// observed storage latencies: when the read P95 overshoots its target the
// write budget halves; when it is comfortably met the budget recovers.
// This mirrors Linux Kyber's token-based throttling at the fidelity the
// evaluation needs.
type kyber struct {
	reads, writes queue
	// readTarget is the read P95 goal the write budget adapts to; this
	// model does not use Kyber's write target.
	readTarget     sim.Time
	readLat        []sim.Time // sliding sample window
	writeBudget    int
	inflightWrites int
}

const (
	kyberWindow      = 64
	kyberMaxBudget   = 16
	kyberStartBudget = 8
)

func newKyber(cfg Config) *kyber {
	read, _ := cfg.targets()
	return &kyber{
		reads:       queue{coordinated: cfg.Coordinated},
		writes:      queue{coordinated: cfg.Coordinated},
		readTarget:  read,
		writeBudget: kyberStartBudget,
	}
}

func (k *kyber) Enqueue(r *Request) {
	if r.Write {
		k.writes.push(r)
	} else {
		k.reads.push(r)
	}
}

func (k *kyber) Dequeue(now sim.Time) *Request {
	if r := k.reads.pop(); r != nil {
		return r
	}
	if k.inflightWrites < k.writeBudget {
		if r := k.writes.pop(); r != nil {
			k.inflightWrites++
			return r
		}
	}
	return nil
}

func (k *kyber) OnComplete(write bool, lat sim.Time) {
	if write {
		if k.inflightWrites > 0 {
			k.inflightWrites--
		}
		return
	}
	k.readLat = append(k.readLat, lat)
	if len(k.readLat) < kyberWindow {
		return
	}
	// The window's p95 by nearest rank: index 60 of 64.
	p95 := stats.Select(k.readLat, stats.Rank(95, len(k.readLat)))
	k.readLat = k.readLat[:0]
	switch {
	case p95 > k.readTarget:
		k.writeBudget /= 2
		if k.writeBudget < 1 {
			k.writeBudget = 1
		}
	case p95 < k.readTarget*8/10 && k.writeBudget < kyberMaxBudget:
		// Reads comfortably under target: admit writes again, two tokens
		// per window so recovery is not glacial after one GC spike.
		k.writeBudget += 2
		if k.writeBudget > kyberMaxBudget {
			k.writeBudget = kyberMaxBudget
		}
	}
}

func (k *kyber) Len() int { return k.reads.Len() + k.writes.Len() }

// WriteBudget exposes the current throttle for tests.
func (k *kyber) WriteBudget() int { return k.writeBudget }

// cfq alternates dispatch quanta between the read and write classes in
// weight proportion (reads weighted heavier, as CFQ does for synchronous
// I/O). Within a class the queue honours coordination like the others.
type cfq struct {
	reads, writes queue
	// quantum counts remaining dispatches for the active class.
	readWeight, writeWeight int
	servingReads            bool
	quantum                 int
}

const (
	cfqReadWeight  = 3
	cfqWriteWeight = 1
)

func newCFQ(cfg Config) *cfq {
	return &cfq{
		reads:        queue{coordinated: cfg.Coordinated},
		writes:       queue{coordinated: cfg.Coordinated},
		readWeight:   cfqReadWeight,
		writeWeight:  cfqWriteWeight,
		servingReads: true,
		quantum:      cfqReadWeight,
	}
}

func (c *cfq) Enqueue(r *Request) {
	if r.Write {
		c.writes.push(r)
	} else {
		c.reads.push(r)
	}
}

func (c *cfq) Dequeue(now sim.Time) *Request {
	if c.reads.Len() == 0 && c.writes.Len() == 0 {
		return nil
	}
	// At most two class switches are ever needed (spent quantum on an
	// empty class, then the other class); three tries cover both.
	for tries := 0; tries < 3; tries++ {
		active, other := &c.reads, &c.writes
		if !c.servingReads {
			active, other = &c.writes, &c.reads
		}
		if c.quantum > 0 && active.Len() > 0 {
			c.quantum--
			return active.pop()
		}
		_ = other
		// Quantum spent or class empty: switch classes.
		c.servingReads = !c.servingReads
		if c.servingReads {
			c.quantum = c.readWeight
		} else {
			c.quantum = c.writeWeight
		}
	}
	return nil
}

func (c *cfq) OnComplete(bool, sim.Time) {}
func (c *cfq) Len() int                  { return c.reads.Len() + c.writes.Len() }
