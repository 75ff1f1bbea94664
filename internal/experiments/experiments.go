// Package experiments regenerates every table and figure of the RackBlox
// evaluation (§4). The registry (All, ByID) lists each experiment once. A
// simulating experiment is a sweep: a list of cells, each a labelled
// core.Config that runs exactly once through the package's single runner,
// and its tables are views over the completed runs — one extractor per
// column, optionally relative to a base run. cmd/rackbench renders the
// tables, and the repository-root BenchmarkExperiment runs every entry at
// reduced scale.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"rackblox/internal/core"
	"rackblox/internal/netsim"
	"rackblox/internal/predictor"
	"rackblox/internal/sim"
	"rackblox/internal/stats"
	"rackblox/internal/trace"
	"rackblox/internal/wear"
	"rackblox/internal/workload"
)

// Scale shrinks experiment durations for fast runs: 1.0 is the full
// rackbench setting, benchmarks use ~0.25.
type Scale float64

// duration scales the measured window.
func (s Scale) duration(full sim.Time) sim.Time {
	if s <= 0 {
		s = 1
	}
	d := sim.Time(float64(full) * float64(s))
	if d < 100*sim.Millisecond {
		d = 100 * sim.Millisecond
	}
	return d
}

// Row is one printable result row: a label, an x-position, and named
// values in figure order.
type Row struct {
	Series string
	X      string
	Values map[string]float64
}

// Table is a titled collection of rows.
type Table struct {
	ID    string
	Title string
	Cols  []string
	Rows  []Row
}

// Format renders the table with aligned columns.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(&b, "%-22s %-14s", "series", "x")
	for _, c := range t.Cols {
		fmt.Fprintf(&b, " %14s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-22s %-14s", r.Series, r.X)
		for _, c := range t.Cols {
			fmt.Fprintf(&b, " %14.3f", r.Values[c])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Entry is one registered experiment.
type Entry struct {
	// ID selects the experiment (rackbench -exp).
	ID string
	// Title is the one-line description rackbench -list prints.
	Title string
	// Headline is the column the repository-root BenchmarkExperiment
	// reports for every row.
	Headline string
	// replay marks a cluster simulation the same-seed replay test reruns
	// and compares byte for byte.
	replay bool
	tables func(Scale, Options) []*Table
}

// registry lists every experiment: the paper's tables and figures in
// order, then the experiments beyond the paper.
var registry = []Entry{
	{"table2", "Table 2: workloads used in the evaluation", "write_pct", false, fixed(Table2)},
	{"fig9", "Fig. 9: P99.9 read and write latency across YCSB mixes, vs VDC", "value", false,
		ycsbLatency("fig9", "Fig9", "P99.9", p999)},
	{"fig10", "Fig. 10: P99 read and write latency across YCSB mixes, vs VDC", "value", false,
		ycsbLatency("fig10", "Fig10", "P99", p99)},
	{"fig11", "Fig. 11: average read and write latency across YCSB mixes, vs VDC", "value", false,
		ycsbLatency("fig11", "Fig11", "Average", mean)},
	{"fig12", "Fig. 12: throughput across YCSB mixes", "kiops", false, fig12},
	{"fig13", "Fig. 13: P99.9 read and write latency of the BenchBase workloads, vs VDC", "value", false, fig13},
	{"fig14", "Fig. 14: throughput of the BenchBase workloads", "kiops", false, fig14},
	{"fig15", "Fig. 15: P99.9 latency breakdown, storage-only vs end to end", "total", false, fig15},
	{"fig16", "Fig. 16: read latency tail CDF across YCSB mixes", "p99.9", false, fig16},
	{"fig17", "Fig. 17: coordinated I/O under FIFO, Deadline and Kyber storage schedulers", "value", false, fig17},
	{"fig18", "Fig. 18: coordinated I/O under FQ, Priority and TB network schedulers", "value", false, fig18},
	{"fig19", "Fig. 19: YCSB-A read tails across the SSD x network grid", "p99.9", false, fig19},
	{"fig20", "Fig. 20: P99.9 read speedup vs VDC, YCSB-A/B/C across the SSD x network grid", "speedup", false, fig20},
	{"fig21", "Fig. 21: software- vs hardware-isolated vSSD read tails", "p99.9", false, fig21},
	{"fig22", "Fig. 22: per-server wear imbalance after one and two years", "imbalance_max", false, fixed(Fig22)},
	{"fig23", "Fig. 23: rack wear imbalance over 80 weeks by global swap period", "week80", false, fixed(Fig23)},
	{"predictor", "§3.4 return-latency predictor accuracy per network regime", "hit_rate", false,
		fixed(PredictorAccuracy)},
	{"gcablation", "coordinated GC ablation: redirect-only vs redirect+delay", "value", false, gcAblation},
	{"figec", "2-way replication vs RS(4,2): read tail, write cost, GC storm and two crashes", "p999_ms", true, figEC},
	{"figmr", "single-rack vs multi-rack RS(4,2) placement under a rack crash (-racks, -crossbw)",
		"unrecov_stripes", true, figMR},
	{"figrl", "recovery lifecycle: fail, repair, re-integrate, revive; each window vs healthy",
		"vs_healthy", true, figRL},
	{"figsc", "scenario timeline: fail, revive-server, catch-up, fail-again; each window vs healthy",
		"vs_healthy", true, figSC},
	{"figslo", "SLO-aware repair pacing: foreground p99 vs repair completion (-repair-slo)", "p99_ms", true, figSLO},
	{"figra", "rack-aware codes: RS(4,2) vs LRC(4,2) repair spine bytes and completion", "cross_repair_mb", true, figRA},
}

// fixed adapts a table that takes no scale and runs no cluster.
func fixed(f func() *Table) func(Scale, Options) []*Table {
	return func(Scale, Options) []*Table { return []*Table{f()} }
}

// All lists the registered experiments in rackbench order.
func All() []Entry { return append([]Entry(nil), registry...) }

// ByID runs the registered experiment id and returns its tables.
func ByID(id string, scale Scale, opt Options) ([]*Table, error) {
	for _, e := range registry {
		if e.ID == id {
			return e.tables(scale, opt), nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}

// Options tunes the experiments from the command line; zero fields keep
// each experiment's defaults.
type Options struct {
	// Racks overrides the rack fault-domain count.
	Racks int
	// CrossBWMBps overrides the spine/aggregation link bandwidth in MB/s.
	CrossBWMBps float64
	// RepairSLOTarget overrides the foreground read p99 target of the
	// SLO-pacing experiments (figslo) and enables pacing for -scenario
	// runs; 0 keeps figslo's auto-derived target (a multiple of the
	// healthy baseline's p99) and leaves -scenario runs unpaced.
	RepairSLOTarget sim.Time
	// Trace enables the flight recorder for every run the experiment
	// executes (cmd/rackbench -trace). Observer-only: the tabulated
	// numbers are byte-identical with or without it.
	Trace trace.Options
	// MetricsInterval arms the time-series sampler for every run
	// (cmd/rackbench -metrics); 0 leaves it off.
	MetricsInterval sim.Time
	// OnResult, when set, receives every run's full Result as it
	// completes, keyed by the experiment id and a "series/x" label —
	// how cmd/rackbench collects traces, timelines, and per-run
	// counters for its JSON report.
	OnResult func(id, series string, res *core.Result)
}

// cell is one simulated run of a sweep: the table row it fills and its
// configuration. label keys the run for Options.OnResult; empty means
// "series/x".
type cell struct {
	series, x, label string
	cfg              core.Config
}

// run is a completed cell, its read and write latency distributions
// sorted once for every view.
type run struct {
	cell
	*core.Result
	reads, writes stats.Dist
}

// execute is the runner every simulation goes through: it applies the
// observability options, runs the cell, and hands the result to
// Options.OnResult under the experiment id and the cell's label.
func (o Options) execute(id string, c cell) (run, error) {
	c.cfg.Trace = o.Trace
	c.cfg.MetricsInterval = o.MetricsInterval
	res, err := core.Run(c.cfg)
	if err != nil {
		return run{}, err
	}
	if o.OnResult != nil {
		label := c.label
		if label == "" {
			label = c.series + "/" + c.x
		}
		o.OnResult(id, label, res)
	}
	return run{cell: c, Result: res, reads: res.Recorder.Reads(), writes: res.Recorder.Writes()}, nil
}

// sweep runs every cell once, in order. Experiment configurations are
// fixed, so one the simulator rejects is a bug.
func sweep(id string, opt Options, cells ...cell) []run {
	runs := make([]run, len(cells))
	for i, c := range cells {
		r, err := opt.execute(id, c)
		if err != nil {
			panic(fmt.Sprintf("experiments: %s %s/%s: %v", id, c.series, c.x, err))
		}
		runs[i] = r
	}
	return runs
}

// where keeps the runs that satisfy keep, in order.
func where(runs []run, keep func(*run) bool) []run {
	var out []run
	for i := range runs {
		if keep(&runs[i]) {
			out = append(out, runs[i])
		}
	}
	return out
}

// extractor reads one table value off a completed run.
type extractor func(*run) float64

func ms(ns int64) float64        { return float64(ns) / 1e6 }
func mb(bytes int64) float64     { return float64(bytes) / 1e6 }
func p99(d stats.Dist) float64   { return ms(d.P99()) }
func p999(d stats.Dist) float64  { return ms(d.P999()) }
func mean(d stats.Dist) float64  { return d.Mean() / 1e6 }
func readP999(r *run) float64    { return p999(r.reads) }
func readMean(r *run) float64    { return mean(r.reads) }
func tail(pct float64) extractor { return func(r *run) float64 { return ms(r.reads.Percentile(pct)) } }

// columns maps a column name to its measurement: a name means the same
// thing in every table that uses it. Tables whose columns are specific to
// them ("value", ratios) pass their own extractors to tabulate.
var columns = map[string]extractor{
	"p99_ms":               func(r *run) float64 { return p99(r.reads) },
	"read_p99_ms":          func(r *run) float64 { return p99(r.reads) },
	"p999_ms":              readP999,
	"read_mean_ms":         readMean,
	"p98.5":                tail(98.5),
	"p99":                  tail(99),
	"p99.5":                tail(99.5),
	"p99.9":                tail(99.9),
	"kiops":                func(r *run) float64 { return r.Recorder.Throughput() / 1000 },
	"write_amp":            func(r *run) float64 { return r.WriteAmp },
	"gc_events":            func(r *run) float64 { return float64(r.GCEvents) },
	"delayed":              func(r *run) float64 { return float64(r.GCDelayed) },
	"handoffs":             func(r *run) float64 { return float64(r.Switch.Handoffs) },
	"spine_util":           func(r *run) float64 { return r.SpineUtilization },
	"viol_frac":            func(r *run) float64 { return r.SLOViolationFraction },
	"slo_viol_frac":        func(r *run) float64 { return r.SLOViolationFraction },
	"repair_done_ms":       func(r *run) float64 { return ms(r.RepairCompletionTime) },
	"cross_repair_mb":      func(r *run) float64 { return mb(r.CrossRackRepairBytes) },
	"repair_cross_mb":      func(r *run) float64 { return mb(r.CrossRackRepairBytes) },
	"repair_mb":            func(r *run) float64 { return mb(r.CrossRackRepairBytes) },
	"repair_mb_offered":    func(r *run) float64 { return mb(r.CrossRackRepairBytesOffered) },
	"fg_cross_mb":          func(r *run) float64 { return mb(r.ForegroundCrossRackBytes) },
	"fg_mb":                func(r *run) float64 { return mb(r.ForegroundCrossRackBytes) },
	"degraded":             func(r *run) float64 { return float64(r.DegradedReads) },
	"lost_reads":           func(r *run) float64 { return float64(r.LostReads) },
	"unrecov_stripes":      func(r *run) float64 { return float64(r.UnrecoverableStripes) },
	"degraded_post_repair": func(r *run) float64 { return float64(r.DegradedReadsPostRepair) },
	"reintegrated_stripes": func(r *run) float64 { return float64(r.ReintegratedStripes) },
	"restored_holders":     func(r *run) float64 { return float64(r.RestoredHolders) },
	"server_revivals":      func(r *run) float64 { return float64(r.ServerRevivals) },
	"tor_revivals":         func(r *run) float64 { return float64(r.ToRRevivals) },
	"repaired":             func(r *run) float64 { return float64(r.RepairedStripes) },
	"pending":              func(r *run) float64 { return float64(r.RepairPending) },
	"repair_pending":       func(r *run) float64 { return float64(r.RepairPending) },
	"local_repair":         func(r *run) float64 { return float64(r.LocalRepairStripes) },
	"agg_repair":           func(r *run) float64 { return float64(r.AggregatedRepairStripes) },
	"local_degraded":       func(r *run) float64 { return float64(r.LocalDegradedReads) },
}

// tabulate is a table view: one row per run, each column read by the
// table's own extractor of that name, else by the shared one.
func tabulate(id, title string, runs []run, own map[string]extractor, cols ...string) *Table {
	t := &Table{ID: id, Title: title, Cols: cols}
	for i := range runs {
		vals := make(map[string]float64, len(cols))
		for _, c := range cols {
			get, ok := own[c]
			if !ok {
				get = columns[c]
			}
			vals[c] = get(&runs[i])
		}
		t.Rows = append(t.Rows, Row{Series: runs[i].series, X: runs[i].x, Values: vals})
	}
	return t
}

// relative is a column of metric against the latest base run at or
// before each row — metric/base, or base/metric for a speedup — and 0
// unless both are positive. A view reads its rows in sweep order, so each
// grid lists its base run first in every group: VDC first within each x,
// the uncoordinated scheduler before the coordinated one, the healthy
// phase before the faults.
func relative(metric extractor, isBase func(*run) bool, speedup bool) extractor {
	var base float64
	return func(r *run) float64 {
		v := metric(r)
		if isBase(r) {
			base = v
		}
		if v <= 0 || base <= 0 {
			return 0
		}
		if speedup {
			return base / v
		}
		return v / base
	}
}

// baseConfig is the shared experiment setup (§4.1).
func baseConfig(scale Scale) core.Config {
	cfg := core.DefaultConfig()
	cfg.Duration = scale.duration(cfg.Duration)
	return cfg
}

// Table2 reproduces the workload table.
func Table2() *Table {
	t := &Table{ID: "Table2", Title: "Workloads used in the evaluation", Cols: []string{"write_pct"}}
	for _, row := range workload.Table2() {
		pct := row.WritePct
		label := row.Name
		if pct < 0 {
			pct = 0 // YCSB is configurable 0-100%
			label = "YCSB (0-100%)"
		}
		t.Rows = append(t.Rows, Row{Series: label, X: row.Description,
			Values: map[string]float64{"write_pct": pct}})
	}
	return t
}

// Fig22: per-server wear imbalance after one and two years, with and
// without swapping.
func Fig22() *Table {
	t := &Table{ID: "Fig22", Title: "Per-server wear imbalance (max/avg)",
		Cols: []string{"imbalance_mean", "imbalance_max"}}
	for _, years := range []int{1, 2} {
		for _, swap := range []bool{false, true} {
			cfg := wear.DefaultConfig()
			if !swap {
				cfg.LocalPeriodDays = 0
				cfg.GlobalPeriodDays = 0
			}
			r, err := wear.New(cfg)
			if err != nil {
				panic(err)
			}
			r.RunWeeks(52 * years)
			var vals []float64
			for s := 0; s < cfg.Servers; s++ {
				vals = append(vals, r.ServerImbalance(s))
			}
			sort.Float64s(vals)
			mean := 0.0
			for _, v := range vals {
				mean += v
			}
			mean /= float64(len(vals))
			series := "No Swap"
			if swap {
				series = "RackBlox"
			}
			t.Rows = append(t.Rows, Row{Series: series, X: fmt.Sprintf("after %d year(s)", years),
				Values: map[string]float64{"imbalance_mean": mean, "imbalance_max": vals[len(vals)-1]}})
		}
	}
	return t
}

// Fig23: rack-scale wear imbalance over 80 weeks for several global swap
// periods.
func Fig23() *Table {
	t := &Table{ID: "Fig23", Title: "Rack wear imbalance over time (max/avg)",
		Cols: []string{"week16", "week32", "week48", "week64", "week80"}}
	configs := []struct {
		series string
		period int
	}{
		{"No Swap", 0},
		{"RB-Swap per 4 Weeks", 28},
		{"RB-Swap per 8 Weeks", 56},
		{"RB-Swap per 12 Weeks", 84},
	}
	for _, c := range configs {
		cfg := wear.DefaultConfig()
		cfg.GlobalPeriodDays = c.period
		if c.period == 0 {
			cfg.LocalPeriodDays = 0
		}
		r, err := wear.New(cfg)
		if err != nil {
			panic(err)
		}
		vals := map[string]float64{}
		for w := 1; w <= 80; w++ {
			r.RunWeeks(1)
			switch w {
			case 16, 32, 48, 64, 80:
				vals[fmt.Sprintf("week%d", w)] = r.RackImbalance()
			}
		}
		t.Rows = append(t.Rows, Row{Series: c.series, X: "80 weeks", Values: vals})
	}
	return t
}

// PredictorAccuracy validates the §3.4 sliding-window predictor against
// the three network regimes.
func PredictorAccuracy() *Table {
	t := &Table{ID: "Predictor", Title: "Return-latency predictor accuracy",
		Cols: []string{"hit_rate", "worst_rel_err"}}
	for _, prof := range netProfiles() {
		n := netsim.New(prof, sim.NewRNG(11))
		p := predictor.NewLatency(predictor.DefaultWindow)
		var acc predictor.Accuracy
		tol := 25 * sim.Microsecond
		if m := sim.Time(prof.MedianNS); m > tol {
			tol = m
		}
		now := sim.Time(0)
		for i := 0; i < predictor.DefaultWindow; i++ {
			p.Observe(false, n.HopLatency(now))
			now += 50 * sim.Microsecond
		}
		for i := 0; i < 50000; i++ {
			actual := n.HopLatency(now)
			acc.Record(p.Predict(false), actual, tol)
			p.Observe(false, actual)
			now += 50 * sim.Microsecond
		}
		t.Rows = append(t.Rows, Row{Series: prof.Name, X: "50k packets",
			Values: map[string]float64{"hit_rate": acc.HitRate(), "worst_rel_err": acc.WorstRel}})
	}
	return t
}
