package core

import (
	"fmt"

	"rackblox/internal/sim"
	"rackblox/internal/stats"
)

// metricsWindow is the sliding window the time-series latency gauges
// read: large enough to smooth a few sampling intervals of reads, small
// enough to track transients like a failure's onset.
const metricsWindow = 256

// startMetrics arms the flight recorder's time-series sampler when
// Config.MetricsInterval is set. The sampler rides the engine's observer
// tick: instruments are read between events at fixed virtual-time
// boundaries, scheduling nothing and drawing no randomness, so enabling
// it cannot perturb the simulated outcome.
func (r *Rack) startMetrics() {
	if r.cfg.MetricsInterval <= 0 {
		return
	}
	r.metricsWin = stats.NewWindowedQuantile(metricsWindow)
	ts := stats.NewTimeSeries(int64(r.cfg.MetricsInterval))
	ts.Gauge("spine_util", func() float64 { return r.spine.Utilization() })
	ts.Gauge("repair_rate_mbps", func() float64 {
		if r.pacer != nil {
			return r.pacer.rateMBps
		}
		return 0
	})
	ts.Gauge("repair_backlog", func() float64 {
		n := 0
		for _, g := range r.groups {
			n += g.recon.Pending()
		}
		return float64(n)
	})
	ts.Gauge("read_p50_ms", func() float64 { return float64(r.metricsWin.Quantile(50)) / 1e6 })
	ts.Gauge("read_p99_ms", func() float64 { return float64(r.metricsWin.P99()) / 1e6 })
	ts.Counter("reads_completed", func() float64 { return float64(r.completedReads) })
	ts.Counter("writes_completed", func() float64 { return float64(r.completedWrites) })
	ts.Counter("degraded_reads", func() float64 { return float64(r.res.DegradedReads) })
	ts.Counter("gc_events", func() float64 { return float64(r.res.GCEvents) })
	ts.Counter("repair_cross_mb", func() float64 { return float64(r.spine.crossRepairBytes) / 1e6 })
	ts.Counter("fg_cross_mb", func() float64 { return float64(r.spine.foregroundBytes) / 1e6 })
	for i := range r.perRackReqs {
		i := i
		ts.Counter(fmt.Sprintf("rack%d_reqs", i), func() float64 { return float64(r.perRackReqs[i]) })
	}
	r.metrics = ts
	r.eng.SetTick(r.cfg.MetricsInterval, func(at sim.Time) { ts.Sample(int64(at)) })
}
