package sim

// Bandwidth models a shared link of fixed capacity (the cluster's
// spine/aggregation uplink): transfers serialize FIFO on an underlying
// Resource, each occupying the link for bytes/rate. Because the link is a
// serial resource, the achieved throughput can never exceed the configured
// rate — the property the cross-rack repair experiments rely on. The link
// keeps no byte counts of its own: callers count their bytes in their
// done handlers, as core.Spine does per traffic class.
type Bandwidth struct {
	res         *Resource
	bytesPerSec float64
}

// NewBandwidth returns an idle link moving bytesPerSec bytes per second.
func NewBandwidth(eng *Engine, bytesPerSec float64) *Bandwidth {
	if bytesPerSec <= 0 {
		panic("sim: bandwidth must be positive")
	}
	return &Bandwidth{res: NewResource(eng), bytesPerSec: bytesPerSec}
}

// TransferTime converts a byte count into link occupancy, rounded UP to
// the next nanosecond. Truncating instead (the pre-PR-7 behavior) shaved
// a sub-nanosecond sliver off every transfer, so back-to-back transfers
// could sum to more bytes per elapsed time than the configured rate —
// violating the never-exceeds-capacity invariant the repair pacer and
// the cross-rack experiments rely on — and tiny transfers at high rates
// occupied the link for 0ns.
func (b *Bandwidth) TransferTime(bytes int64) Time {
	if bytes <= 0 {
		return 0
	}
	d := Time(float64(bytes) / b.bytesPerSec * float64(Second))
	if float64(d) < float64(bytes)/b.bytesPerSec*float64(Second) {
		d++
	}
	if d == 0 {
		d = 1
	}
	return d
}

// Reserve books the link for bytes, returns the transfer window, and
// fires done (which may be nil) when the last byte clears the link.
// Waiting behind earlier transfers is implicit in the returned start time.
func (b *Bandwidth) Reserve(bytes int64, done Handler) (start, end Time) {
	return b.res.Reserve(b.TransferTime(bytes), done)
}

// Transfer is Reserve with a callback that receives the transfer window:
// done(start, end) runs when the last byte clears the link. done may be
// nil. Like Resource.Acquire, the adapter allocates once per call.
func (b *Bandwidth) Transfer(bytes int64, done func(start, end Time)) (start, end Time) {
	if done == nil {
		return b.Reserve(bytes, nil)
	}
	w := &window{done: done}
	w.start, w.end = b.Reserve(bytes, w)
	return w.start, w.end
}

// Utilization returns cumulative busy time over elapsed time, <= 1.
func (b *Bandwidth) Utilization() float64 { return b.res.Utilization() }
