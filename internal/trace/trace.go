// Package trace is the rack's flight recorder: a sim-time span tracer
// that records where each simulated I/O spends its latency — client
// queueing, ToR lookup and handoff, spine transfer wait vs service,
// server service, GC blocking, degraded-read reconstruction,
// retransmission — plus control-plane moments (scenario fail/revive,
// pacer rate changes, re-integration) as instants.
//
// Tracing is observer-only by construction: the tracer never schedules
// simulation events and never draws randomness, so a traced run
// executes the exact same event sequence as an untraced one. Recording
// costs memory, not virtual time.
//
// Span retention combines head sampling with a tail reservoir: one in
// Options.SampleEvery requests is kept by key hash (an unbiased
// cross-section of the workload), and the Options.TailKeep slowest
// reads are always kept regardless of the hash (the p99 story is in
// the tail, which uniform sampling would mostly miss). Repair and GC
// spans are few and always kept.
//
// WriteChromeTrace exports the collected trace as Chrome trace-event
// JSON loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
package trace

import (
	"math"
	"slices"
	"sort"

	"rackblox/internal/sim"
)

// Options configures the tracer. The zero value disables tracing.
type Options struct {
	// Enabled turns the flight recorder on.
	Enabled bool
	// SampleEvery keeps one in N requests by key hash (head sampling);
	// 1 keeps every request, 0 defaults to 16.
	SampleEvery int
	// TailKeep bounds the always-keep-slowest read reservoir; 0
	// defaults to 512. Reads this slow are kept even when the head
	// sample skips them, so tail attribution sees the whole p99 set as
	// long as 1% of reads fits in the reservoir.
	TailKeep int
}

// withDefaults fills unset knobs.
func (o Options) withDefaults() Options {
	if o.SampleEvery <= 0 {
		o.SampleEvery = 16
	}
	if o.TailKeep <= 0 {
		o.TailKeep = 512
	}
	return o
}

// AttrKind is the type tag of a span annotation.
type AttrKind int

const (
	// AttrString annotations carry a string value.
	AttrString AttrKind = iota
	// AttrInt annotations carry an int64 value.
	AttrInt
)

// Attr is one typed key/value annotation on a span or instant.
type Attr struct {
	Key  string   `json:"key"`
	Kind AttrKind `json:"kind"`
	Str  string   `json:"str,omitempty"`
	Int  int64    `json:"int,omitempty"`
}

// String builds a string annotation.
func String(key, v string) Attr { return Attr{Key: key, Kind: AttrString, Str: v} }

// Int builds an integer annotation.
func Int(key string, v int64) Attr { return Attr{Key: key, Kind: AttrInt, Int: v} }

// Phase is one slice of a request's attribution partition: the phases
// of a finished root span tile [Start, End] exactly, so their
// durations sum to the end-to-end latency.
type Phase struct {
	Name string   `json:"name"`
	Dur  sim.Time `json:"dur"`
}

// Span is one timed operation. Request roots carry a Kind ("read" or
// "write"), a sampling Key, and an attribution Phases partition;
// children record nested detail (ToR dwell, spine wait/transfer,
// chunk fetches). All methods are nil-receiver-safe so call sites need
// no tracing-enabled guards.
type Span struct {
	Name     string   `json:"name"`
	Kind     string   `json:"kind,omitempty"`
	Key      uint64   `json:"key,omitempty"`
	Start    sim.Time `json:"start"`
	End      sim.Time `json:"end"`
	Attrs    []Attr   `json:"attrs,omitempty"`
	Phases   []Phase  `json:"phases,omitempty"`
	Children []*Span  `json:"children,omitempty"`

	tracer *Tracer
}

// Dur returns the span's duration.
func (s *Span) Dur() sim.Time {
	if s == nil {
		return 0
	}
	return s.End - s.Start
}

// Child opens a child span starting at start. Returns nil on a nil
// receiver.
func (s *Span) Child(name string, start sim.Time) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Name: name, Start: start, End: start}
	s.Children = append(s.Children, c)
	return c
}

// EndAt closes the span at t.
func (s *Span) EndAt(t sim.Time) {
	if s == nil {
		return
	}
	s.End = t
}

// Annotate appends typed annotations.
func (s *Span) Annotate(attrs ...Attr) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, attrs...)
}

// Phase appends one attribution phase. Zero-duration phases are
// dropped; negative durations are clamped to zero (they would poison
// the fraction sums).
func (s *Span) Phase(name string, dur sim.Time) {
	if s == nil || dur <= 0 {
		return
	}
	s.Phases = append(s.Phases, Phase{Name: name, Dur: dur})
}

// Finish closes a root span at t and hands it to the tracer's
// retention policy. Request roots (kind "read"/"write") go through
// head sampling plus the tail reservoir; other roots are always kept.
func (s *Span) Finish(t sim.Time) {
	if s == nil {
		return
	}
	s.End = t
	if s.tracer != nil {
		s.tracer.finishRoot(s)
	}
}

// Instant is a zero-duration control-plane moment (scenario
// fail/revive, pacer rate change, repair enqueue/re-integration).
type Instant struct {
	Track string   `json:"track"`
	Name  string   `json:"name"`
	At    sim.Time `json:"at"`
	Attrs []Attr   `json:"attrs,omitempty"`
}

// GCSpan is one garbage-collection burst on a vSSD's channels.
type GCSpan struct {
	VSSD   uint32   `json:"vssd"`
	Kind   string   `json:"kind"`
	Start  sim.Time `json:"start"`
	End    sim.Time `json:"end"`
	Blocks int      `json:"blocks"`
}

// Tracer collects spans during one run. A nil *Tracer is a valid
// disabled tracer: every method no-ops and StartRequest returns nil
// spans whose methods also no-op, so the datapath calls the tracer
// unconditionally.
type Tracer struct {
	opts Options

	kept      []*Span
	reservoir []*Span // min-heap by (Dur, Key): slowest non-sampled reads
	instants  []Instant
	gcSpans   []GCSpan
	gcByVSSD  map[uint32][]int // indices into gcSpans, per vSSD

	totalReads int
	readDurs   []int64
}

// New returns a tracer, or nil (disabled) when opts.Enabled is false.
func New(opts Options) *Tracer {
	if !opts.Enabled {
		return nil
	}
	return &Tracer{opts: opts.withDefaults(), gcByVSSD: make(map[uint32][]int)}
}

// hash64 is splitmix64's finalizer: a cheap, well-mixed hash so head
// sampling by sequential keys is not periodic with workload structure.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// StartRequest opens a root span for request key (kind "read" or
// "write") at time at. The span is provisional: whether it is kept is
// decided at Finish by the sampling policy.
func (t *Tracer) StartRequest(key uint64, kind string, at sim.Time) *Span {
	if t == nil {
		return nil
	}
	return &Span{Name: kind, Kind: kind, Key: key, Start: at, End: at, tracer: t}
}

// StartSpan opens an always-kept root span outside request sampling
// (repair batches and other background work — few and all wanted).
func (t *Tracer) StartSpan(name, kind string, key uint64, at sim.Time) *Span {
	if t == nil {
		return nil
	}
	return &Span{Name: name, Kind: kind, Key: key, Start: at, End: at, tracer: t}
}

// Instant records a control-plane moment on the named track. It keeps a
// copy of attrs, so the caller's argument list does not escape and a call
// on a nil tracer allocates nothing.
func (t *Tracer) Instant(track, name string, at sim.Time, attrs ...Attr) {
	if t == nil {
		return
	}
	t.instants = append(t.instants, Instant{Track: track, Name: name, At: at, Attrs: slices.Clone(attrs)})
}

// RecordGC records one GC burst on vssd's channels over [start, end].
func (t *Tracer) RecordGC(vssd uint32, kind string, start, end sim.Time, blocks int) {
	if t == nil {
		return
	}
	t.gcByVSSD[vssd] = append(t.gcByVSSD[vssd], len(t.gcSpans))
	t.gcSpans = append(t.gcSpans, GCSpan{VSSD: vssd, Kind: kind, Start: start, End: end, Blocks: blocks})
}

// GCOverlap returns the total time GC bursts on vssd overlapped the
// window [from, to] — the gc_block share of a device service window.
func (t *Tracer) GCOverlap(vssd uint32, from, to sim.Time) sim.Time {
	if t == nil || to <= from {
		return 0
	}
	var total sim.Time
	for _, i := range t.gcByVSSD[vssd] {
		g := t.gcSpans[i]
		lo, hi := g.Start, g.End
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if hi > lo {
			total += hi - lo
		}
	}
	return total
}

// slower orders spans for the tail reservoir's min-heap: the root is
// the fastest kept read, evicted first when a slower one arrives.
func slower(a, b *Span) bool {
	if ad, bd := a.Dur(), b.Dur(); ad != bd {
		return ad > bd
	}
	return a.Key > b.Key
}

// finishRoot applies retention to a finished root span.
func (t *Tracer) finishRoot(s *Span) {
	s.tracer = nil // break the cycle; retention is decided once
	if s.Kind == "read" {
		t.totalReads++
		t.readDurs = append(t.readDurs, int64(s.Dur()))
	}
	switch s.Kind {
	case "read", "write":
	default:
		t.kept = append(t.kept, s) // background spans bypass sampling
		return
	}
	if hash64(s.Key)%uint64(t.opts.SampleEvery) == 0 {
		t.kept = append(t.kept, s)
		return
	}
	if s.Kind != "read" {
		return
	}
	// Tail reservoir: keep the TailKeep slowest non-sampled reads.
	if len(t.reservoir) < t.opts.TailKeep {
		t.reservoir = append(t.reservoir, s)
		t.siftUp(len(t.reservoir) - 1)
		return
	}
	if slower(s, t.reservoir[0]) {
		t.reservoir[0] = s
		t.siftDown(0)
	}
}

func (t *Tracer) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !slower(t.reservoir[p], t.reservoir[i]) {
			return
		}
		t.reservoir[p], t.reservoir[i] = t.reservoir[i], t.reservoir[p]
		i = p
	}
}

func (t *Tracer) siftDown(i int) {
	n := len(t.reservoir)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && slower(t.reservoir[min], t.reservoir[l]) {
			min = l
		}
		if r < n && slower(t.reservoir[min], t.reservoir[r]) {
			min = r
		}
		if min == i {
			return
		}
		t.reservoir[i], t.reservoir[min] = t.reservoir[min], t.reservoir[i]
		i = min
	}
}

// Trace is the collected output of one traced run.
type Trace struct {
	// Spans are the kept root spans, ordered by (Start, Key).
	Spans []*Span `json:"spans"`
	// Instants are the control-plane moments, in recording order.
	Instants []Instant `json:"instants"`
	// GCSpans are every GC burst, in recording order.
	GCSpans []GCSpan `json:"gc_spans"`
	// TotalReads counts every finished read, kept or not — the
	// denominator of the tail-attribution percentile.
	TotalReads int `json:"total_reads"`

	readDurs []int64
}

// sortChildren orders every child list by (Start, insertion) so the
// export is stable regardless of when children were attached.
func sortChildren(s *Span) {
	sort.SliceStable(s.Children, func(i, j int) bool {
		return s.Children[i].Start < s.Children[j].Start
	})
	for _, c := range s.Children {
		sortChildren(c)
	}
}

// Collect assembles the final trace. Call once, after the run drains.
func (t *Tracer) Collect() *Trace {
	if t == nil {
		return nil
	}
	spans := append([]*Span(nil), t.kept...)
	spans = append(spans, t.reservoir...)
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Key < spans[j].Key
	})
	for _, s := range spans {
		sortChildren(s)
	}
	return &Trace{
		Spans:      spans,
		Instants:   t.instants,
		GCSpans:    t.gcSpans,
		TotalReads: t.totalReads,
		readDurs:   t.readDurs,
	}
}

// PhaseShare is one row of the tail attribution: the fraction of the
// slowest reads' total latency spent in one phase.
type PhaseShare struct {
	Phase    string  `json:"phase"`
	Fraction float64 `json:"fraction"`
}

// TailAttribution answers "why is p99 high": over the slowest frac
// (e.g. 0.01) of all reads, the share of end-to-end latency spent in
// each phase. Fractions are duration-weighted across the tail set and
// sum to 1 (up to float rounding) because each read's phases tile its
// latency. Returns nil when no reads were kept.
func (tr *Trace) TailAttribution(frac float64) []PhaseShare {
	if tr == nil || tr.TotalReads == 0 || frac <= 0 {
		return nil
	}
	n := int(math.Ceil(frac * float64(tr.TotalReads)))
	if n < 1 {
		n = 1
	}
	// Threshold: the n-th largest duration over ALL reads (kept or
	// not), so the tail set is defined by the true distribution.
	durs := append([]int64(nil), tr.readDurs...)
	sort.Slice(durs, func(i, j int) bool { return durs[i] > durs[j] })
	if n > len(durs) {
		n = len(durs)
	}
	threshold := durs[n-1]

	tail := make([]*Span, 0, n)
	for _, s := range tr.Spans {
		if s.Kind == "read" && int64(s.Dur()) >= threshold {
			tail = append(tail, s)
		}
	}
	sort.SliceStable(tail, func(i, j int) bool {
		if tail[i].Dur() != tail[j].Dur() {
			return tail[i].Dur() > tail[j].Dur()
		}
		return tail[i].Key < tail[j].Key
	})
	if len(tail) > n {
		tail = tail[:n]
	}
	if len(tail) == 0 {
		return nil
	}

	acc := make(map[string]sim.Time)
	var total sim.Time
	for _, s := range tail {
		total += s.Dur()
		for _, p := range s.Phases {
			acc[p.Name] += p.Dur
		}
	}
	if total <= 0 {
		return nil
	}
	out := make([]PhaseShare, 0, len(acc))
	for name, d := range acc {
		out = append(out, PhaseShare{Phase: name, Fraction: float64(d) / float64(total)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fraction != out[j].Fraction {
			return out[i].Fraction > out[j].Fraction
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}
