package sim

// Pool recycles event records of type T through a LIFO free list, so a
// hot path that schedules one record per hop allocates only while the
// number of records in flight grows. A pool belongs to the handlers of
// one engine and is not safe for concurrent use. Put does not clear the
// record: the owner resets what it must not retain before handing it
// back, and Get returns the record as it was put.
type Pool[T any] struct{ free []*T }

// Get returns a recycled record, or a new zero one when none is free.
func (p *Pool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free = p.free[:n-1]
		return x
	}
	return new(T)
}

// Put returns x to the pool. x must not be used again until Get hands it
// out anew.
func (p *Pool[T]) Put(x *T) { p.free = append(p.free, x) }
