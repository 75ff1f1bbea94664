package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"time"

	"rackblox/internal/core"
	"rackblox/internal/stats"
	"rackblox/internal/trace"
	"rackblox/internal/walltime"
)

// options are the settings every workload runs under.
type options struct {
	seed int64
	// seconds is the host-time budget of the timed repetitions.
	seconds float64
	// scale multiplies every workload's simulated length and every
	// microbenchmark's operation count; 1 outside tests.
	scale float64
	// endToEnd and layers select the two phases: untraced repetitions
	// for the end-to-end metrics, and untraced/traced pairs plus the
	// microbenchmarks for the per-layer metrics.
	endToEnd, layers bool
}

// Repetition counts: the timed runs repeat until the budget is spent, but
// at least this often. Each end-to-end repetition is preceded by a few
// timed set-ups and runs of the reference computation.
const (
	minReps      = 3
	minPairs     = 1
	setupsPerRep = 4
	refsPerRep   = 3
)

// metric is one reported number. samples is how many observations it
// was computed from: repetitions for host times, latency samples for
// percentiles, operations for microbenchmarks, 1 for a run's counter.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// report is one workload's outcome.
type report struct {
	workload  string
	metrics   []metric
	attempted int64
	failed    int64
	// problems lists every failed correctness check.
	problems []string
}

func (r *report) add(name string, value float64, unit string, samples int) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, samples: samples})
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// count adds one run's requests to the attempted and failed totals.
func (r *report) count(res *core.Result) {
	failed := failures(res)
	r.attempted += int64(res.Recorder.Len()) + failed
	r.failed += failed
}

// runWorkload runs the selected phases of one workload.
func runWorkload(w workload, o options) report {
	rep := report{workload: w.name}
	cfg := w.build(o.seed, o.scale)
	if _, err := core.Run(warmUpConfig(cfg)); err != nil {
		rep.problem("warm-up: %v", err)
		return rep
	}
	if o.endToEnd {
		endToEnd(cfg, o, &rep)
	}
	if o.layers && len(rep.problems) == 0 {
		perLayer(cfg, o, &rep)
	}
	return rep
}

// measuredRun is one Rack.Run measured from outside.
type measuredRun struct {
	wall    time.Duration
	alloc   uint64 // TotalAlloc delta over Run
	mallocs uint64 // Mallocs delta over Run
	// live is HeapAlloc after a full GC with the rack and its Result
	// still reachable.
	live uint64
	// digest identifies the simulated outcome (see digest).
	digest [32]byte
}

// timedRun builds a rack (untimed) and times its Run. The caller drops
// the Result before the next call, or the next live heap would hold it.
func timedRun(cfg core.Config) (measuredRun, *core.Result, error) {
	r, err := core.NewRack(cfg)
	if err != nil {
		return measuredRun{}, nil, err
	}
	runtime.GC()
	var before, after, live runtime.MemStats
	runtime.ReadMemStats(&before)
	start := walltime.Start()
	res := r.Run()
	wall := walltime.Elapsed(start)
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&live)
	runtime.KeepAlive(r)
	sum, err := digest(res)
	return measuredRun{
		wall:    wall,
		alloc:   after.TotalAlloc - before.TotalAlloc,
		mallocs: after.Mallocs - before.Mallocs,
		live:    live.HeapAlloc,
		digest:  sum,
	}, res, err
}

// repeat calls once until once fails, or it has succeeded atLeast times
// and the budget leaves no room for another call as long as the last.
func repeat(seconds float64, atLeast int, once func() bool) {
	budget := walltime.Start()
	for n := 1; ; n++ {
		start := walltime.Start()
		if !once() {
			return
		}
		if n >= atLeast && (walltime.Elapsed(budget)+walltime.Elapsed(start)).Seconds() > seconds {
			return
		}
	}
}

// endToEnd measures what a user of the simulator sees: set-up time, host
// time and memory of Rack.Run, and the simulated outcome. Every
// repetition runs the same seed, so all of them must compute the same
// Result. The set-up samples and the reference runs are spread between
// the repetitions, so that they see the same host as Rack.Run does.
func endToEnd(cfg core.Config, o options, rep *report) {
	var setups, walls, refs, allocs, perReq, live []float64
	var want [32]byte
	var outcome report
	repeat(o.seconds, minReps, func() bool {
		for range setupsPerRep {
			runtime.GC()
			start := walltime.Start()
			r, err := core.NewRack(cfg)
			setups = append(setups, walltime.Elapsed(start).Seconds())
			if err != nil {
				rep.problem("NewRack: %v", err)
				return false
			}
			runtime.KeepAlive(r)
		}
		runtime.GC()
		for range refsPerRep {
			refs = append(refs, reference().Seconds())
		}
		rn, res, err := timedRun(cfg)
		if err != nil {
			rep.problem("run: %v", err)
			return false
		}
		if len(walls) == 0 {
			want = rn.digest
			simOutcome(cfg, res, o, &outcome)
		} else if rn.digest != want {
			rep.problem("repetition %d computed a different Result than repetition 1", len(walls)+1)
		}
		rep.count(res)
		walls = append(walls, rn.wall.Seconds())
		allocs = append(allocs, float64(rn.alloc)/1e6)
		perReq = append(perReq, float64(rn.mallocs)/float64(max(1, res.Recorder.Len())))
		live = append(live, float64(rn.live)/1e6)
		return true
	})
	if len(walls) == 0 {
		return
	}
	n := len(walls)
	rep.add("setup_s", median(setups), "s", len(setups))
	rep.add("wall_per_ref", slices.Min(walls)/slices.Min(refs), "ratio", n)
	rep.add("alloc_mb", median(allocs), "MB", n)
	rep.add("allocs_per_req", median(perReq), "count", n)
	rep.add("live_heap_mb", median(live), "MB", n)
	rep.metrics = append(rep.metrics, outcome.metrics...)
	rep.problems = append(rep.problems, outcome.problems...)
}

// reference is a fixed computation that stresses what Rack.Run stresses:
// map lookups and deletes, pointer-linked allocations, closure calls and
// the garbage collection they cause. It uses only the standard library,
// so no change to the simulator changes its cost. Other tenants of a
// shared host slow it and Rack.Run alike, so wall_per_ref, the ratio of
// their fastest runs, stays steady while the host's speed drifts.
func reference() time.Duration {
	type node struct {
		key  uint64
		next *node
		get  func() uint64
	}
	start := walltime.Start()
	live := make(map[uint64]*node)
	var chain *node
	x := uint64(3)
	for i := 0; i < 300_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k := x % 100_000
		if n, ok := live[k]; ok {
			sink += int64(n.get())
			delete(live, k)
			continue
		}
		n := &node{key: x, next: chain}
		n.get = func() uint64 { return n.key }
		chain = n
		if i%1000 == 0 {
			chain = nil
		}
		live[k] = n
	}
	sink += int64(len(live))
	return walltime.Elapsed(start)
}

// simOutcome reports the simulated result of one run: read latency, the
// rate served and the flash write amplification.
func simOutcome(cfg core.Config, res *core.Result, o options, rep *report) {
	reads := res.Recorder.Reads()
	for _, p := range []struct {
		name string
		pct  float64
	}{{"sim_read_p50_us", 50}, {"sim_read_p99_us", 99}, {"sim_read_p999_us", 99.9}} {
		rep.add(p.name, percentileUS(reads, p.pct, o, rep, p.name), "us", reads.Len())
	}
	rep.add("sim_kiops", res.Recorder.Throughput()/1e3, "kIOPS", res.Recorder.Len())
	rep.add("sim_write_amp", res.WriteAmp, "ratio", 1)
	checkResult(cfg, res, rep)
}

// percentileUS returns a percentile in microseconds. At full length every
// workload is sized so that at least ten samples lie beyond each reported
// percentile; scaled-down test runs are too short to hold that.
func percentileUS(d stats.Dist, pct float64, o options, rep *report, name string) float64 {
	n := d.Len()
	if beyond := n - int(math.Ceil(pct/100*float64(n)-1e-9)); o.scale == 1 && n > 0 && beyond < 10 {
		rep.problem("%s: only %d of %d samples beyond the percentile", name, beyond, n)
	}
	return float64(d.Percentile(pct)) / 1e3
}

// failures counts requests that never completed: lost to a crash (lost
// reads are a subset of lost requests) or unreadable.
func failures(res *core.Result) int64 {
	return res.LostRequests + res.UnrecoverableReads
}

// checkResult applies the invariants every run must hold.
func checkResult(cfg core.Config, res *core.Result, rep *report) {
	if res.Recorder.Len() == 0 {
		rep.problem("no request completed")
	}
	if n := failures(res); n > 0 {
		rep.problem("%d requests failed", n)
	}
	if _, ok := lastFailure(cfg); ok {
		if res.RepairPending != 0 {
			rep.problem("%d repair tasks still pending after the run drained", res.RepairPending)
		}
		if res.UnrecoverableStripes != 0 {
			rep.problem("%d stripes unrecoverable", res.UnrecoverableStripes)
		}
		if res.RepairCompletionTime == 0 {
			rep.problem("no repair completed")
		}
	}
	if res.CrossRackRepairBytes > res.CrossRackRepairBytesOffered {
		rep.problem("spine delivered %d repair bytes of %d offered",
			res.CrossRackRepairBytes, res.CrossRackRepairBytesOffered)
	}
}

// digest hashes everything a run simulated: the Result as JSON without
// the flight recorder's output and settings, plus every latency sample,
// which the Recorder does not marshal. Tracing is observer-only, so a
// traced run must have the untraced run's digest.
func digest(res *core.Result) ([32]byte, error) {
	simulated := *res
	simulated.Trace, simulated.TailAttribution, simulated.Timelines = nil, nil, nil
	simulated.Config.Trace = trace.Options{}
	b, err := json.Marshal(&simulated)
	if err != nil {
		return [32]byte{}, err
	}
	h := sha256.New()
	h.Write(b)
	buf := make([]byte, 0, 1<<16)
	for _, s := range stats.RawSamples(res.Recorder) {
		for _, v := range []int64{s.Total, s.NetIn, s.Queue, s.Device, s.NetOut} {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		var flags byte
		if s.Write {
			flags |= 1
		}
		if s.Redirected {
			flags |= 2
		}
		buf = append(buf, flags)
		if len(buf) > cap(buf)-64 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// perLayer runs untraced/traced pairs until the budget is spent, reads
// the layer counters off the Results, and runs the microbenchmarks.
func perLayer(cfg core.Config, o options, rep *report) {
	traced := cfg
	traced.Trace = trace.Options{Enabled: true}
	var plain, withTrace, perEvent []float64
	var base *core.Result
	var tail []trace.PhaseShare
	var want [32]byte
	repeat(o.seconds, minPairs, func() bool {
		rn, res, err := timedRun(cfg)
		if err != nil {
			rep.problem("run: %v", err)
			return false
		}
		if base == nil {
			base, want = res, rn.digest
			checkResult(cfg, res, rep)
		} else if rn.digest != want {
			rep.problem("untraced pair %d computed a different Result than pair 1", len(plain)+1)
		}
		rep.count(res)
		plain = append(plain, rn.wall.Seconds())
		perEvent = append(perEvent, float64(rn.mallocs)/float64(max(1, res.Events)))

		tr, tres, err := timedRun(traced)
		if err != nil {
			rep.problem("traced run: %v", err)
			return false
		}
		if tr.digest != want {
			rep.problem("traced pair %d changed the simulated Result", len(plain))
		}
		rep.count(tres)
		withTrace = append(withTrace, tr.wall.Seconds())
		if tail == nil {
			tail = tres.TailAttribution
		}
		return true
	})
	if base == nil {
		return
	}
	resultLayers(cfg, base, o, rep)
	rep.add("core.wall_s", slices.Min(plain), "s", len(plain))
	rep.add("core.allocs_per_event", median(perEvent), "count", len(perEvent))
	shares := map[string]float64{}
	for _, s := range tail {
		shares[s.Phase] = s.Fraction
	}
	for _, phase := range []string{"retransmit", "net_in", "queue", "device", "degraded_read", "gc_block", "net_out"} {
		rep.add("trace.tail."+phase, shares[phase], "ratio", len(withTrace))
	}
	rep.add("trace.overhead", median(withTrace)/median(plain)-1, "ratio", len(plain))
	microbenchmarks(cfg, o, rep)
}

// resultLayers reads the per-layer counters of one untraced Result.
func resultLayers(cfg core.Config, res *core.Result, o options, rep *report) {
	device, queue, net := stats.NewRecorder(), stats.NewRecorder(), stats.NewRecorder()
	var reads, writes, redirected int
	for i, s := range stats.RawSamples(res.Recorder) {
		if s.Write {
			writes++
			continue
		}
		reads++
		if s.Redirected {
			redirected++
		}
		device.Add(stats.Sample{Total: s.Device}, int64(i))
		queue.Add(stats.Sample{Total: s.Queue}, int64(i))
		net.Add(stats.Sample{Total: s.NetIn + s.NetOut}, int64(i))
	}
	requests := res.Recorder.Len()
	perReq := func(v uint64) float64 { return float64(v) / float64(max(1, requests)) }
	perRead := func(v int64) float64 { return float64(v) / float64(max(1, reads)) }
	perWrite := func(v float64) float64 {
		if writes == 0 {
			return 0
		}
		return v / float64(writes)
	}
	pct := func(name string, d stats.Dist, p float64) {
		rep.add(name, percentileUS(d, p, o, rep, name), "us", d.Len())
	}

	rep.add("core.events_per_req", perReq(res.Events), "count", requests)
	rep.add("core.cache_hit_frac", perRead(res.CacheHits), "ratio", reads)
	rep.add("core.bounces", float64(res.Bounces), "count", 1)
	rep.add("core.reads", float64(reads), "count", 1)
	pct("core.read_p9999_us", res.Recorder.Reads(), 99.99)
	pct("core.write_p999_us", res.Recorder.Writes(), 99.9)

	rep.add("core.spine.util", res.SpineUtilization, "ratio", 1)
	rep.add("core.spine.repair_mb", float64(res.CrossRackRepairBytes)/1e6, "MB", 1)
	rep.add("core.spine.fg_mb", float64(res.ForegroundCrossRackBytes)/1e6, "MB", 1)
	rep.add("core.spine.cross_fetches", float64(res.CrossRackFetches), "count", 1)
	finalRate := 0.0
	if n := len(res.RepairRateTimeline); n > 0 {
		finalRate = res.RepairRateTimeline[n-1].MBps
	}
	rep.add("core.pacer.slo_viol_frac", res.SLOViolationFraction, "ratio", 1)
	rep.add("core.pacer.final_rate_mbps", finalRate, "MB/s", 1)

	byPrefix := map[string]uint64{}
	for label, n := range res.EventsByHandler {
		prefix, _, _ := strings.Cut(label, ".")
		switch prefix {
		case "client", "net", "switch", "server", "resource", "gc", "hermes", "ec", "paced":
		default:
			prefix = "other"
		}
		byPrefix[prefix] += n
	}
	for _, prefix := range []string{"client", "net", "switch", "server", "resource", "gc", "hermes", "ec", "paced", "other"} {
		rep.add("sim.events_per_req."+prefix, perReq(byPrefix[prefix]), "count", requests)
	}

	sw := res.Switch
	rep.add("switchsim.redirect_frac", perRead(int64(redirected)), "ratio", reads)
	rep.add("switchsim.degraded_redirects_per_kread", 1e3*perRead(sw.DegradedRedirects), "count", reads)
	rep.add("switchsim.handoffs_per_kread", 1e3*perRead(sw.Handoffs), "count", reads)

	delayedFrac := 0.0
	if asked := sw.GCAccepted + sw.GCDelayed; asked > 0 {
		delayedFrac = float64(sw.GCDelayed) / float64(asked)
	}
	rep.add("ssd.gc_events_per_kwrite", perWrite(1e3*float64(res.GCEvents)), "count", writes)
	rep.add("ssd.gc_delayed_frac", delayedFrac, "ratio", int(sw.GCAccepted+sw.GCDelayed))
	rep.add("ssd.forced_gcs", float64(res.ForcedGCs), "count", 1)
	pct("ssd.read_device_p999_us", device.All(), 99.9)
	pct("sched.read_queue_p999_us", queue.All(), 99.9)
	pct("netsim.read_net_p999_us", net.All(), 99.9)
	rep.add("replication.msgs_per_write", perWrite(float64(res.EventsByHandler["hermes.msg"])), "count", writes)

	heal := 0.0
	if last, ok := lastFailure(cfg); ok {
		heal = float64(res.RepairCompletionTime-last) / 1e6
	}
	rep.add("ec.heal_ms", heal, "ms", 1)
	rep.add("ec.degraded_read_frac", perRead(res.DegradedReads), "ratio", reads)
	rep.add("ec.repaired_stripes", float64(res.RepairedStripes), "count", 1)
	rep.add("ec.repair_pending", float64(res.RepairPending), "count", 1)
	rep.add("ec.unrecoverable_stripes", float64(res.UnrecoverableStripes), "count", 1)
	rep.add("ec.degraded_reads_post_repair", float64(res.DegradedReadsPostRepair), "count", 1)
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
