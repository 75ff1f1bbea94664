// Package experiments regenerates every table and figure of the RackBlox
// evaluation (§4). Each Fig* function runs the corresponding sweep on the
// simulated rack and returns printable rows; cmd/rackbench renders them,
// and the repository-root benchmarks call them at reduced scale.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"rackblox/internal/core"
	"rackblox/internal/flash"
	"rackblox/internal/netsim"
	"rackblox/internal/predictor"
	"rackblox/internal/sched"
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

// mixes are the YCSB read/write splits of Figs. 9-12 and 15-16.
var mixes = []float64{0, 0.05, 0.2, 0.5, 0.8, 0.95, 1.0}

func mixLabel(writeFrac float64) string {
	return workload.Mix(int(100 - writeFrac*100 + 0.5))
}

// baseConfig is the shared experiment setup (§4.1).
func baseConfig(scale Scale) core.Config {
	cfg := core.DefaultConfig()
	cfg.Duration = scale.duration(cfg.Duration)
	return cfg
}

// runYCSB runs one (system, write fraction) cell.
func runYCSB(sys core.System, writeFrac float64, scale Scale, seed int64) *core.Result {
	cfg := baseConfig(scale)
	cfg.System = sys
	cfg.Seed = seed
	cfg.Workload.WriteFrac = writeFrac
	res, err := core.Run(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return res
}

// ycsbSweep produces one row per (system, mix) with the chosen metric.
func ycsbSweep(id, title string, scale Scale, readSide bool,
	metric func(*stats.Recorder) float64) *Table {

	t := &Table{ID: id, Title: title, Cols: []string{"value", "norm_vs_vdc"}}
	for _, mix := range mixes {
		if readSide && mix == 1.0 {
			continue // read metrics exclude the write-only mix
		}
		if !readSide && mix == 0 {
			continue // write metrics exclude the read-only mix
		}
		var vdcVal float64
		for _, sys := range core.Systems() {
			res := runYCSB(sys, mix, scale, 1)
			v := metric(res.Recorder)
			if sys == core.VDC {
				vdcVal = v
			}
			norm := 0.0
			if vdcVal > 0 {
				norm = v / vdcVal
			}
			t.Rows = append(t.Rows, Row{
				Series: sys.String(),
				X:      mixLabel(mix),
				Values: map[string]float64{"value": v, "norm_vs_vdc": norm},
			})
		}
	}
	return t
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

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

// Fig9a: P99.9 read latency across YCSB mixes (normalized to VDC).
func Fig9a(scale Scale) *Table {
	return ycsbSweep("Fig9a", "P99.9 read latency (ms), YCSB mixes", scale, true,
		func(r *stats.Recorder) float64 { return ms(r.Reads().P999()) })
}

// Fig9b: P99.9 write latency across YCSB mixes.
func Fig9b(scale Scale) *Table {
	return ycsbSweep("Fig9b", "P99.9 write latency (ms), YCSB mixes", scale, false,
		func(r *stats.Recorder) float64 { return ms(r.Writes().P999()) })
}

// Fig10a/b: P99 latencies.
func Fig10a(scale Scale) *Table {
	return ycsbSweep("Fig10a", "P99 read latency (ms), YCSB mixes", scale, true,
		func(r *stats.Recorder) float64 { return ms(r.Reads().P99()) })
}

func Fig10b(scale Scale) *Table {
	return ycsbSweep("Fig10b", "P99 write latency (ms), YCSB mixes", scale, false,
		func(r *stats.Recorder) float64 { return ms(r.Writes().P99()) })
}

// Fig11a/b: average latencies.
func Fig11a(scale Scale) *Table {
	return ycsbSweep("Fig11a", "Average read latency (ms), YCSB mixes", scale, true,
		func(r *stats.Recorder) float64 { return r.Reads().Mean() / 1e6 })
}

func Fig11b(scale Scale) *Table {
	return ycsbSweep("Fig11b", "Average write latency (ms), YCSB mixes", scale, false,
		func(r *stats.Recorder) float64 { return r.Writes().Mean() / 1e6 })
}

// Fig12: throughput (KIOPS) across mixes, including both pure mixes.
func Fig12(scale Scale) *Table {
	t := &Table{ID: "Fig12", Title: "Throughput (KIOPS), YCSB mixes", Cols: []string{"kiops"}}
	for _, mix := range mixes {
		for _, sys := range core.Systems() {
			res := runYCSB(sys, mix, scale, 1)
			t.Rows = append(t.Rows, Row{
				Series: sys.String(),
				X:      mixLabel(mix),
				Values: map[string]float64{"kiops": res.Recorder.Throughput() / 1000},
			})
		}
	}
	return t
}

// runBench runs one (system, BenchBase workload) cell.
func runBench(sys core.System, name string, scale Scale) *core.Result {
	cfg := baseConfig(scale)
	cfg.System = sys
	cfg.Workload = core.WorkloadSpec{Name: name, MeanGap: cfg.Workload.MeanGap}
	res, err := core.Run(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return res
}

// Fig13a/b: P99.9 read/write latency for the five BenchBase workloads.
func Fig13a(scale Scale) *Table {
	t := &Table{ID: "Fig13a", Title: "P99.9 read latency (ms), BenchBase workloads", Cols: []string{"value", "norm_vs_vdc"}}
	benchSweep(t, scale, func(r *stats.Recorder) float64 { return ms(r.Reads().P999()) })
	return t
}

func Fig13b(scale Scale) *Table {
	t := &Table{ID: "Fig13b", Title: "P99.9 write latency (ms), BenchBase workloads", Cols: []string{"value", "norm_vs_vdc"}}
	benchSweep(t, scale, func(r *stats.Recorder) float64 { return ms(r.Writes().P999()) })
	return t
}

func benchSweep(t *Table, scale Scale, metric func(*stats.Recorder) float64) {
	for _, name := range workload.Names() {
		var vdcVal float64
		for _, sys := range core.Systems() {
			res := runBench(sys, name, scale)
			v := metric(res.Recorder)
			if sys == core.VDC {
				vdcVal = v
			}
			norm := 0.0
			if vdcVal > 0 {
				norm = v / vdcVal
			}
			t.Rows = append(t.Rows, Row{Series: sys.String(), X: name,
				Values: map[string]float64{"value": v, "norm_vs_vdc": norm}})
		}
	}
}

// Fig14: throughput for the BenchBase workloads.
func Fig14(scale Scale) *Table {
	t := &Table{ID: "Fig14", Title: "Throughput (KIOPS), BenchBase workloads", Cols: []string{"kiops"}}
	for _, name := range workload.Names() {
		for _, sys := range core.Systems() {
			res := runBench(sys, name, scale)
			t.Rows = append(t.Rows, Row{Series: sys.String(), X: name,
				Values: map[string]float64{"kiops": res.Recorder.Throughput() / 1000}})
		}
	}
	return t
}

// Fig15a/b: P99.9 latency breakdown — storage-only vs end-to-end.
func Fig15a(scale Scale) *Table {
	t := &Table{ID: "Fig15a", Title: "P99.9 read latency breakdown (ms)", Cols: []string{"total", "storage"}}
	breakdownSweep(t, scale, true)
	return t
}

func Fig15b(scale Scale) *Table {
	t := &Table{ID: "Fig15b", Title: "P99.9 write latency breakdown (ms)", Cols: []string{"total", "storage"}}
	breakdownSweep(t, scale, false)
	return t
}

func breakdownSweep(t *Table, scale Scale, readSide bool) {
	for _, mix := range mixes {
		if readSide && mix == 1.0 || !readSide && mix == 0 {
			continue
		}
		for _, sys := range core.Systems() {
			res := runYCSB(sys, mix, scale, 1)
			var total, storage int64
			if readSide {
				total = res.Recorder.Reads().P999()
				storage = res.Recorder.ReadStorage().P999()
			} else {
				total = res.Recorder.Writes().P999()
				storage = res.Recorder.WriteStorage().P999()
			}
			t.Rows = append(t.Rows, Row{Series: sys.String(), X: mixLabel(mix),
				Values: map[string]float64{"total": ms(total), "storage": ms(storage)}})
		}
	}
}

// Fig16: cumulative distribution of read latency (P98.5..P99.9) per mix.
func Fig16(scale Scale) *Table {
	t := &Table{ID: "Fig16", Title: "Read latency tail CDF (ms)",
		Cols: []string{"p98.5", "p99", "p99.5", "p99.9"}}
	for _, mix := range mixes {
		if mix == 1.0 {
			continue
		}
		for _, sys := range core.Systems() {
			res := runYCSB(sys, mix, scale, 1)
			pts := res.Recorder.Reads().TailCDF()
			t.Rows = append(t.Rows, Row{Series: sys.String(), X: mixLabel(mix),
				Values: map[string]float64{
					"p98.5": ms(pts[0].Latency), "p99": ms(pts[1].Latency),
					"p99.5": ms(pts[2].Latency), "p99.9": ms(pts[3].Latency),
				}})
		}
	}
	return t
}

// Fig17: coordinated I/O under different storage schedulers, P99.9 reads.
func Fig17(scale Scale) *Table {
	t := &Table{ID: "Fig17", Title: "P99.9 read latency (ms) by storage scheduler",
		Cols: []string{"value", "speedup_vs_base"}}
	policies := []sched.Policy{sched.FIFO, sched.Deadline, sched.Kyber}
	for _, mix := range []float64{0.2, 0.5} {
		for _, pol := range policies {
			var base float64
			for _, coord := range []bool{false, true} {
				cfg := baseConfig(scale)
				cfg.System = core.RackBlox
				cfg.SchedPolicy = pol
				cfg.Workload.WriteFrac = mix
				if coord {
					cfg.CoordinatedOverride = 1
				} else {
					cfg.CoordinatedOverride = -1
				}
				res, err := core.Run(cfg)
				if err != nil {
					panic(err)
				}
				v := ms(res.Recorder.Reads().P999())
				name := pol.String()
				if coord {
					name = "RackBlox (" + pol.String() + ")"
				} else {
					base = v
				}
				sp := 0.0
				if v > 0 && base > 0 {
					sp = base / v
				}
				t.Rows = append(t.Rows, Row{Series: name, X: mixLabel(mix),
					Values: map[string]float64{"value": v, "speedup_vs_base": sp}})
			}
		}
	}
	return t
}

// Fig18: coordinated I/O under different network schedulers, P99.9 reads.
func Fig18(scale Scale) *Table {
	t := &Table{ID: "Fig18", Title: "P99.9 read latency (ms) by network scheduler",
		Cols: []string{"value", "speedup_vs_base"}}
	for _, q := range []string{"FQ", "Priority", "TB"} {
		for _, mix := range []float64{0.2, 0.5} {
			var base float64
			for _, coord := range []bool{false, true} {
				cfg := baseConfig(scale)
				cfg.System = core.RackBlox
				cfg.Qdisc = q
				cfg.Workload.WriteFrac = mix
				if coord {
					cfg.CoordinatedOverride = 1
				} else {
					cfg.CoordinatedOverride = -1
				}
				res, err := core.Run(cfg)
				if err != nil {
					panic(err)
				}
				v := ms(res.Recorder.Reads().P999())
				name := q
				if coord {
					name = "RackBlox (" + q + ")"
				} else {
					base = v
				}
				sp := 0.0
				if v > 0 && base > 0 {
					sp = base / v
				}
				t.Rows = append(t.Rows, Row{Series: name, X: mixLabel(mix),
					Values: map[string]float64{"value": v, "speedup_vs_base": sp}})
			}
		}
	}
	return t
}

// deviceProfiles and netProfiles for Figs. 19-20.
func deviceProfiles() []flash.Profile {
	return []flash.Profile{flash.ProfileOptane(), flash.ProfileIntelDC(), flash.ProfilePSSD()}
}

func netProfiles() []netsim.Profile {
	return []netsim.Profile{netsim.ProfileFast(), netsim.ProfileMedium(), netsim.ProfileSlow()}
}

// Fig19: read tail CDF of YCSB-A for every SSD x network combination.
func Fig19(scale Scale) *Table {
	t := &Table{ID: "Fig19", Title: "YCSB-A read tail (ms), SSD x network grid",
		Cols: []string{"p98.5", "p99", "p99.5", "p99.9"}}
	for _, dev := range deviceProfiles() {
		for _, net := range netProfiles() {
			for _, sys := range []core.System{core.VDC, core.RackBlox} {
				cfg := baseConfig(scale)
				cfg.System = sys
				cfg.Device = dev
				cfg.Net = net
				cfg.Workload.WriteFrac = 0.5 // YCSB-A
				res, err := core.Run(cfg)
				if err != nil {
					panic(err)
				}
				pts := res.Recorder.Reads().TailCDF()
				t.Rows = append(t.Rows, Row{Series: sys.String(),
					X: dev.Name + "+" + net.Name,
					Values: map[string]float64{
						"p98.5": ms(pts[0].Latency), "p99": ms(pts[1].Latency),
						"p99.5": ms(pts[2].Latency), "p99.9": ms(pts[3].Latency),
					}})
			}
		}
	}
	return t
}

// Fig20: P99.9 read speedup of RackBlox over VDC for YCSB-A/B/C across the
// device x network grid.
func Fig20(scale Scale) *Table {
	t := &Table{ID: "Fig20", Title: "P99.9 read speedup vs VDC (x)", Cols: []string{"speedup"}}
	ycsbs := []struct {
		name string
		frac float64
	}{{"YCSB-A", 0.5}, {"YCSB-B", 0.05}, {"YCSB-C", 0.0}}
	for _, y := range ycsbs {
		for _, dev := range deviceProfiles() {
			for _, net := range netProfiles() {
				var vdc, rb int64
				for _, sys := range []core.System{core.VDC, core.RackBlox} {
					cfg := baseConfig(scale)
					cfg.System = sys
					cfg.Device = dev
					cfg.Net = net
					cfg.Workload.WriteFrac = y.frac
					res, err := core.Run(cfg)
					if err != nil {
						panic(err)
					}
					if sys == core.VDC {
						vdc = res.Recorder.Reads().P999()
					} else {
						rb = res.Recorder.Reads().P999()
					}
				}
				t.Rows = append(t.Rows, Row{Series: dev.Name + "+" + net.Name, X: y.name,
					Values: map[string]float64{"speedup": stats.Speedup(vdc, rb)}})
			}
		}
	}
	return t
}

// Fig21: software- vs hardware-isolated vSSD read tails (YCSB 50/50).
func Fig21(scale Scale) *Table {
	t := &Table{ID: "Fig21", Title: "Read tail (ms) by isolation class",
		Cols: []string{"p98.5", "p99", "p99.5", "p99.9"}}
	for _, swIso := range []bool{true, false} {
		x := "HW-Isolated"
		if swIso {
			x = "SW-Isolated"
		}
		for _, sys := range []core.System{core.VDC, core.RackBlox} {
			cfg := baseConfig(scale)
			cfg.System = sys
			cfg.SoftwareIsolated = swIso
			cfg.VSSDPairs = 2
			cfg.Workload.WriteFrac = 0.5
			res, err := core.Run(cfg)
			if err != nil {
				panic(err)
			}
			pts := res.Recorder.Reads().TailCDF()
			t.Rows = append(t.Rows, Row{Series: sys.String(), X: x,
				Values: map[string]float64{
					"p98.5": ms(pts[0].Latency), "p99": ms(pts[1].Latency),
					"p99.5": ms(pts[2].Latency), "p99.9": ms(pts[3].Latency),
				}})
		}
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

// GCAblation compares redirect-only against the full delay+background
// coordinated GC, a design-choice ablation beyond the paper's figures.
func GCAblation(scale Scale) *Table {
	t := &Table{ID: "GCAblation", Title: "Coordinated GC ablation, P99.9 reads (ms)",
		Cols: []string{"value", "gc_events", "delayed"}}
	type variant struct {
		name string
		soft float64 // soft threshold; == gc threshold disables delaying
	}
	cfgBase := baseConfig(scale)
	for _, v := range []variant{
		{"redirect-only", cfgBase.GCThreshold + 0.001},
		{"redirect+delay", cfgBase.SoftThreshold},
	} {
		cfg := baseConfig(scale)
		cfg.System = core.RackBlox
		cfg.SoftThreshold = v.soft
		res, err := core.Run(cfg)
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, Row{Series: v.name, X: "YCSB 50/50",
			Values: map[string]float64{
				"value":     ms(res.Recorder.Reads().P999()),
				"gc_events": float64(res.GCEvents),
				"delayed":   float64(res.GCDelayed),
			}})
	}
	return t
}

// FigEC compares the two redundancy backends — 2-way Hermes replication
// and RS(4,2) erasure coding — on an identical six-server rack, opening
// the replication-vs-EC experiment axis beyond the paper: read tails
// (degraded reads reconstruct around collectors and failures), the
// redundancy write cost (2x replicated sub-writes vs 1+m chunk
// sub-writes), and behavior under a GC storm and under m server crashes.
func FigEC(scale Scale) *Table { return FigECWith(scale, Options{}) }

// FigECWith is FigEC with observability options threaded through.
func FigECWith(scale Scale, opt Options) *Table {
	t := &Table{ID: "FigEC", Title: "Replication vs RS(4,2): read tail, write cost, degraded reads",
		Cols: []string{"p99_ms", "p999_ms", "kiops", "write_amp", "degraded", "lost_reads"}}
	type scenario struct {
		name     string
		workload core.WorkloadSpec
		failTwo  bool
	}
	base := core.DefaultConfig()
	scenarios := []scenario{
		{"YCSB 50/50", core.WorkloadSpec{Name: "YCSB", WriteFrac: 0.5, MeanGap: base.Workload.MeanGap}, false},
		{"GC storm (Twitter)", core.WorkloadSpec{Name: "Twitter", MeanGap: base.Workload.MeanGap}, false},
		{"YCSB + 2 crashes", core.WorkloadSpec{Name: "YCSB", WriteFrac: 0.5, MeanGap: base.Workload.MeanGap}, true},
	}
	specs := []core.RedundancySpec{core.Replication(), core.ErasureCode(4, 2)}
	for _, sc := range scenarios {
		for _, red := range specs {
			cfg := baseConfig(scale)
			cfg.System = core.RackBlox
			cfg.StorageServers = 6 // RS(4,2) spreads each stripe over six servers
			cfg.Redundancy = red
			cfg.Workload = sc.workload
			if sc.failTwo {
				at := cfg.Warmup + cfg.Duration/4
				cfg.Scenario = []core.Event{core.FailServer(0, at), core.FailServer(1, at)}
			}
			opt.instrument(&cfg)
			res, err := core.Run(cfg)
			if err != nil {
				panic(fmt.Sprintf("experiments: %v", err))
			}
			opt.notify("figec", red.String()+"/"+sc.name, res)
			reads := res.Recorder.Reads()
			t.Rows = append(t.Rows, Row{Series: red.String(), X: sc.name,
				Values: map[string]float64{
					"p99_ms":     ms(reads.P99()),
					"p999_ms":    ms(reads.P999()),
					"kiops":      res.Recorder.Throughput() / 1000,
					"write_amp":  res.WriteAmp,
					"degraded":   float64(res.DegradedReads),
					"lost_reads": float64(res.LostReads),
				}})
		}
	}
	return t
}

// Options tunes the cluster-shaped experiments from the command line
// (cmd/rackbench -racks / -crossbw); zero fields keep each experiment's
// defaults.
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

// instrument applies the observability knobs to one run's config.
func (o Options) instrument(cfg *core.Config) {
	cfg.Trace = o.Trace
	cfg.MetricsInterval = o.MetricsInterval
}

// notify hands one completed run to the OnResult hook, if any.
func (o Options) notify(id, series string, res *core.Result) {
	if o.OnResult != nil {
		o.OnResult(id, series, res)
	}
}

// FigMR compares single-rack (compact) against multi-rack (spread)
// RS(4,2) placement on the same cluster — three racks of six servers
// under a spine link — healthy and under a whole-rack failure. Compact
// placement confines each stripe to one rack: the rack crash erases
// whole groups (lost reads, unrecoverable stripes). Spread placement
// caps every rack at m chunks per stripe, so the same crash leaves every
// stripe >= k chunks: reads complete degraded, and the repair traffic
// that rebuilds the lost chunks is metered on the finite cross-rack
// link (cross_repair_mb, bounded by the configured bandwidth;
// spine_util is the link's busy fraction). Spread RS(4,2) needs at
// least ceil((k+m)/m) = 3 fault domains, so Options.Racks values below
// 3 are raised to 3.
func FigMR(scale Scale, opt Options) *Table {
	t := &Table{ID: "FigMR",
		Title: "Single-rack vs multi-rack RS(4,2) placement under rack failure",
		Cols: []string{"p99_ms", "kiops", "degraded", "lost_reads",
			"unrecov_stripes", "cross_repair_mb", "spine_util", "handoffs"}}
	racks := opt.Racks
	if racks < 3 {
		racks = 3 // spread RS(4,2) needs ceil((k+m)/m) = 3 fault domains
	}
	crossBW := opt.CrossBWMBps
	if crossBW <= 0 {
		crossBW = 200
	}
	placements := []struct {
		series string
		mode   core.PlacementMode
	}{
		{"single-rack (compact)", core.PlacementCompact},
		{"multi-rack (spread)", core.PlacementSpread},
	}
	for _, sc := range []struct {
		name     string
		failRack bool
	}{{"healthy", false}, {"rack 0 crash", true}} {
		for _, pl := range placements {
			cfg := baseConfig(scale)
			cfg.System = core.RackBlox
			cfg.Racks = racks
			cfg.StorageServers = 6 // compact needs k+m servers in one rack
			cfg.VSSDPairs = 3
			cfg.Redundancy = core.ErasureCode(4, 2)
			cfg.Placement = pl.mode
			cfg.CrossRackMBps = crossBW
			if sc.failRack {
				cfg.Scenario = []core.Event{core.FailRack(0, cfg.Warmup+cfg.Duration/4)}
			}
			opt.instrument(&cfg)
			res, err := core.Run(cfg)
			if err != nil {
				panic(fmt.Sprintf("experiments: %v", err))
			}
			opt.notify("figmr", pl.series+"/"+sc.name, res)
			reads := res.Recorder.Reads()
			t.Rows = append(t.Rows, Row{Series: pl.series, X: sc.name,
				Values: map[string]float64{
					"p99_ms":          ms(reads.P99()),
					"kiops":           res.Recorder.Throughput() / 1000,
					"degraded":        float64(res.DegradedReads),
					"lost_reads":      float64(res.LostReads),
					"unrecov_stripes": float64(res.UnrecoverableStripes),
					"cross_repair_mb": float64(res.CrossRackRepairBytes) / 1e6,
					"spine_util":      res.SpineUtilization,
					"handoffs":        float64(res.Switch.Handoffs),
				}})
		}
	}
	return t
}

// rlTimeline fixes the recovery-lifecycle instants (absolute virtual
// times, deliberately not scaled: repair and revival need real room to
// finish; Scale only shrinks the measured windows).
const (
	rlFailAt   = 120 * sim.Millisecond
	rlReviveAt = 300 * sim.Millisecond
	// rlHealedBy is when the cluster is expected back to full health:
	// detection (~30ms) + chunk reconstruction + re-integration for the
	// crash scenarios, revival + table replay for the ToR scenario. The
	// figrl test asserts the expectation via the lifecycle counters.
	rlHealedBy = 500 * sim.Millisecond
)

// rlConfig is the recovery-lifecycle cluster: three racks of six
// servers, RS(4,2) spread placement, Optane-class devices so background
// reconstruction completes well inside the simulated horizon, and a
// read-leaning mix so GC idle windows admit repair promptly.
func rlConfig(scale Scale, opt Options) core.Config {
	cfg := baseConfig(scale)
	cfg.System = core.RackBlox
	cfg.Racks = opt.Racks
	if cfg.Racks < 3 {
		cfg.Racks = 3 // spread RS(4,2) needs ceil((k+m)/m) = 3 fault domains
	}
	cfg.StorageServers = 6
	cfg.VSSDPairs = 3
	cfg.Redundancy = core.ErasureCode(4, 2)
	cfg.Placement = core.PlacementSpread
	cfg.CrossRackMBps = opt.CrossBWMBps
	if cfg.CrossRackMBps <= 0 {
		cfg.CrossRackMBps = 200
	}
	cfg.Device = flash.ProfileOptane()
	cfg.Workload.WriteFrac = 0.2
	cfg.KeyspaceFrac = 0.25
	// A generous client window keeps the group issuing while requests
	// stuck on a freshly-crashed holder wait out their timeouts;
	// otherwise the default window clogs and the degraded phase shows
	// timeout stalls instead of degraded service.
	cfg.MaxClientInflight = 256
	return cfg
}

// FigRL traces the recovery lifecycle — fail, repair, re-integrate,
// revive — and shows the co-design closing the loop: after the
// reconstructor rebuilds a crashed server's chunks and re-registers the
// replacement holder in the ToR stripe tables, reads stop paying the
// degraded-reconstruction cost (degraded_post_repair == 0) and the read
// latency of the post-repair window returns to the healthy baseline
// (vs_healthy ~ 1); likewise a revived ToR resumes direct service after
// its stripe table is replayed from survivors. Foreground cross-rack
// traffic (fg_cross_mb) is metered on the same spine as repair traffic
// (repair_cross_mb) and reported separately. Every row measures the
// same-length window, so latencies are comparable across phases.
func FigRL(scale Scale, opt Options) *Table {
	t := &Table{ID: "FigRL",
		Title: "Recovery lifecycle: fail -> repair -> re-integrate -> revive",
		Cols: []string{"read_mean_ms", "read_p99_ms", "vs_healthy", "degraded",
			"degraded_post_repair", "reintegrated_stripes", "repair_pending",
			"fg_cross_mb", "repair_cross_mb", "lost_reads", "tor_revivals"}}
	window := scale.duration(300 * sim.Millisecond)
	type phase struct {
		series, x string
		measure   sim.Time // measured window start (Warmup)
		events    []core.Event
	}
	crash := []core.Event{core.FailServer(0, rlFailAt)}
	darken := []core.Event{core.FailToR(1, rlFailAt)}
	revive := []core.Event{core.FailToR(1, rlFailAt), core.ReviveToR(1, rlReviveAt)}
	phases := []phase{
		{"healthy", "baseline", rlHealedBy, nil},
		{"server crash", "degraded", rlFailAt, crash},
		{"server crash", "post-repair", rlHealedBy, crash},
		{"tor outage", "dark", rlFailAt, darken},
		{"tor outage+revive", "post-revival", rlHealedBy, revive},
	}
	var healthyMean float64
	for _, ph := range phases {
		cfg := rlConfig(scale, opt)
		cfg.Warmup = ph.measure
		cfg.Duration = window
		cfg.Scenario = ph.events
		opt.instrument(&cfg)
		res, err := core.Run(cfg)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		opt.notify("figrl", ph.series+"/"+ph.x, res)
		reads := res.Recorder.Reads()
		mean := reads.Mean() / 1e6
		if ph.series == "healthy" {
			healthyMean = mean
		}
		ratio := 0.0
		if healthyMean > 0 {
			ratio = mean / healthyMean
		}
		t.Rows = append(t.Rows, Row{Series: ph.series, X: ph.x,
			Values: map[string]float64{
				"read_mean_ms":         mean,
				"read_p99_ms":          ms(reads.P99()),
				"vs_healthy":           ratio,
				"degraded":             float64(res.DegradedReads),
				"degraded_post_repair": float64(res.DegradedReadsPostRepair),
				"reintegrated_stripes": float64(res.ReintegratedStripes),
				"repair_pending":       float64(res.RepairPending),
				"fg_cross_mb":          float64(res.ForegroundCrossRackBytes) / 1e6,
				"repair_cross_mb":      float64(res.CrossRackRepairBytes) / 1e6,
				"lost_reads":           float64(res.LostReads),
				"tor_revivals":         float64(res.ToRRevivals),
			}})
	}
	return t
}

// scTimeline fixes the scenario-cycle instants (absolute virtual times,
// deliberately not scaled, like the figrl timeline: repair needs real
// room to finish; Scale only shrinks the measured windows).
const (
	scFailAt   = 120 * sim.Millisecond
	scReviveAt = 300 * sim.Millisecond
	// scHealedBy is when the first cycle is expected fully healed:
	// detection (~30ms), degraded service, then catch-up repair onto the
	// revived blank server and RestoreStripeMember re-registration.
	scHealedBy = 550 * sim.Millisecond
	// scFail2At crashes the same server again after the first heal; its
	// loss now heals the PR-3 way (adopter re-integration), proving the
	// cycle can repeat indefinitely.
	scFail2At   = 650 * sim.Millisecond
	scHealed2By = 1050 * sim.Millisecond
)

// FigSC sweeps a scenario timeline with a server revival in it:
// fail -> revive-server -> catch-up -> fail-again. A storage
// server crashes, returns blank mid-run (core.ReviveServer), catches up
// via the metered reconstructor, and is re-registered under its own id
// (switchsim.RestoreStripeMember) — degraded_post_repair is 0 and read
// latency returns to the healthy baseline (vs_healthy ~ 1). The same
// server then crashes again, and the second loss heals through adopter
// re-integration, showing repeated fail/heal cycles compose. Every row
// measures the same-length window, so latencies are comparable.
func FigSC(scale Scale, opt Options) *Table {
	t := &Table{ID: "FigSC",
		Title: "Scenario timeline: fail -> revive -> catch-up -> fail-again",
		Cols: []string{"read_mean_ms", "read_p99_ms", "vs_healthy", "degraded",
			"degraded_post_repair", "reintegrated_stripes", "restored_holders",
			"server_revivals", "repair_pending", "lost_reads"}}
	window := scale.duration(300 * sim.Millisecond)
	cycle := []core.Event{
		core.FailServer(0, scFailAt),
		core.ReviveServer(0, scReviveAt),
	}
	again := append(append([]core.Event(nil), cycle...), core.FailServer(0, scFail2At))
	type phase struct {
		series, x string
		measure   sim.Time // measured window start (Warmup)
		events    []core.Event
	}
	phases := []phase{
		{"healthy", "baseline", scHealedBy, nil},
		{"fail+revive", "degraded", scFailAt, cycle},
		{"fail+revive", "post-catch-up", scHealedBy, cycle},
		{"fail-again", "degraded-again", scFail2At, again},
		{"fail-again", "post-heal", scHealed2By, again},
	}
	var healthyMean float64
	for _, ph := range phases {
		cfg := rlConfig(scale, opt)
		cfg.Warmup = ph.measure
		cfg.Duration = window
		cfg.Scenario = ph.events
		opt.instrument(&cfg)
		res, err := core.Run(cfg)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		opt.notify("figsc", ph.series+"/"+ph.x, res)
		reads := res.Recorder.Reads()
		mean := reads.Mean() / 1e6
		if ph.series == "healthy" {
			healthyMean = mean
		}
		ratio := 0.0
		if healthyMean > 0 {
			ratio = mean / healthyMean
		}
		t.Rows = append(t.Rows, Row{Series: ph.series, X: ph.x,
			Values: map[string]float64{
				"read_mean_ms":         mean,
				"read_p99_ms":          ms(reads.P99()),
				"vs_healthy":           ratio,
				"degraded":             float64(res.DegradedReads),
				"degraded_post_repair": float64(res.DegradedReadsPostRepair),
				"reintegrated_stripes": float64(res.ReintegratedStripes),
				"restored_holders":     float64(res.RestoredHolders),
				"server_revivals":      float64(res.ServerRevivals),
				"repair_pending":       float64(res.RepairPending),
				"lost_reads":           float64(res.LostReads),
			}})
	}
	return t
}

// ScenarioSummary runs the recovery-lifecycle cluster under one
// caller-supplied scenario timeline (cmd/rackbench -scenario) and
// tabulates the run's read latencies and lifecycle counters. The
// measured window opens after warmup and spans the whole timeline, so
// every event's effects land in one set of counters. A non-zero
// Options.RepairSLOTarget (-repair-slo) enables the SLO repair pacer
// for the run. repair_done_ms is the instant the last repair batch
// landed, paced or not (0 when no repair ran); slo_viol_frac is the
// controller's violated-tick fraction, 0 when pacing is off.
func ScenarioSummary(events []core.Event, scale Scale, opt Options) (*Table, error) {
	cfg := rlConfig(scale, opt)
	cfg.Warmup = 50 * sim.Millisecond
	cfg.Duration = scale.duration(1000 * sim.Millisecond)
	cfg.Scenario = events
	if opt.RepairSLOTarget > 0 {
		cfg.RepairSLO = core.RepairSLO{TargetP99: opt.RepairSLOTarget}
	}
	opt.instrument(&cfg)
	res, err := core.Run(cfg)
	if err != nil {
		return nil, err
	}
	opt.notify("scenario", "run", res)
	reads := res.Recorder.Reads()
	t := &Table{
		ID:    "Scenario",
		Title: fmt.Sprintf("Scenario timeline with %d events", len(events)),
		Cols: []string{"read_mean_ms", "read_p99_ms", "degraded",
			"degraded_post_repair", "reintegrated_stripes", "restored_holders",
			"server_revivals", "tor_revivals", "repair_pending", "lost_reads",
			"slo_viol_frac", "repair_done_ms"},
	}
	for _, ev := range events {
		t.Rows = append(t.Rows, Row{Series: "event", X: ev.String(), Values: map[string]float64{}})
	}
	t.Rows = append(t.Rows, Row{Series: "run", X: "whole timeline",
		Values: map[string]float64{
			"read_mean_ms":         reads.Mean() / 1e6,
			"read_p99_ms":          ms(reads.P99()),
			"degraded":             float64(res.DegradedReads),
			"degraded_post_repair": float64(res.DegradedReadsPostRepair),
			"reintegrated_stripes": float64(res.ReintegratedStripes),
			"restored_holders":     float64(res.RestoredHolders),
			"server_revivals":      float64(res.ServerRevivals),
			"tor_revivals":         float64(res.ToRRevivals),
			"repair_pending":       float64(res.RepairPending),
			"lost_reads":           float64(res.LostReads),
			"slo_viol_frac":        res.SLOViolationFraction,
			"repair_done_ms":       ms(res.RepairCompletionTime),
		}})
	return t, nil
}

// RedundancySummary runs one YCSB 50/50 benchmark with the chosen
// redundancy backend on a six-server rack and tabulates the headline
// metrics (cmd/rackbench's -redundancy flag).
func RedundancySummary(spec core.RedundancySpec, scale Scale) (*Table, error) {
	cfg := baseConfig(scale)
	cfg.StorageServers = 6
	cfg.Redundancy = spec
	if spec.Scheme == core.LocalParityCoded {
		// The LRC family needs rack fault domains and spread placement.
		cfg.System = core.RackBlox
		cfg.Racks = 3
		cfg.Placement = core.PlacementSpread
	}
	res, err := core.Run(cfg)
	if err != nil {
		return nil, err
	}
	reads, writes := res.Recorder.Reads(), res.Recorder.Writes()
	t := &Table{
		ID:    "Redundancy",
		Title: fmt.Sprintf("YCSB 50/50 with %s", spec),
		Cols:  []string{"p99_ms", "p999_ms", "kiops", "write_amp", "degraded"},
	}
	t.Rows = append(t.Rows,
		Row{Series: spec.String(), X: "reads", Values: map[string]float64{
			"p99_ms": ms(reads.P99()), "p999_ms": ms(reads.P999()),
		}},
		Row{Series: spec.String(), X: "writes", Values: map[string]float64{
			"p99_ms": ms(writes.P99()), "p999_ms": ms(writes.P999()),
		}},
		Row{Series: spec.String(), X: "volume", Values: map[string]float64{
			"kiops":     res.Recorder.Throughput() / 1000,
			"write_amp": res.WriteAmp,
			"degraded":  float64(res.DegradedReads),
		}},
	)
	return t, nil
}

// All returns every experiment id in order.
func All() []string {
	return []string{
		"table2", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
		"fig22", "fig23", "predictor", "gcablation", "figec", "figmr",
		"figrl", "figsc", "figslo", "figra", "figsh",
	}
}

// ByID runs an experiment by its id with default options.
func ByID(id string, scale Scale) ([]*Table, error) {
	return ByIDWith(id, scale, Options{})
}

// ByIDWith runs an experiment by its id, returning its tables.
func ByIDWith(id string, scale Scale, opt Options) ([]*Table, error) {
	switch id {
	case "table2":
		return []*Table{Table2()}, nil
	case "fig9":
		return []*Table{Fig9a(scale), Fig9b(scale)}, nil
	case "fig10":
		return []*Table{Fig10a(scale), Fig10b(scale)}, nil
	case "fig11":
		return []*Table{Fig11a(scale), Fig11b(scale)}, nil
	case "fig12":
		return []*Table{Fig12(scale)}, nil
	case "fig13":
		return []*Table{Fig13a(scale), Fig13b(scale)}, nil
	case "fig14":
		return []*Table{Fig14(scale)}, nil
	case "fig15":
		return []*Table{Fig15a(scale), Fig15b(scale)}, nil
	case "fig16":
		return []*Table{Fig16(scale)}, nil
	case "fig17":
		return []*Table{Fig17(scale)}, nil
	case "fig18":
		return []*Table{Fig18(scale)}, nil
	case "fig19":
		return []*Table{Fig19(scale)}, nil
	case "fig20":
		return []*Table{Fig20(scale)}, nil
	case "fig21":
		return []*Table{Fig21(scale)}, nil
	case "fig22":
		return []*Table{Fig22()}, nil
	case "fig23":
		return []*Table{Fig23()}, nil
	case "predictor":
		return []*Table{PredictorAccuracy()}, nil
	case "gcablation":
		return []*Table{GCAblation(scale)}, nil
	case "figec":
		return []*Table{FigECWith(scale, opt)}, nil
	case "figmr":
		return []*Table{FigMR(scale, opt)}, nil
	case "figrl":
		return []*Table{FigRL(scale, opt)}, nil
	case "figsc":
		return []*Table{FigSC(scale, opt)}, nil
	case "figslo":
		return []*Table{FigSLO(scale, opt)}, nil
	case "figra":
		return []*Table{FigRA(scale, opt)}, nil
	case "figsh":
		return []*Table{FigSH(scale, opt)}, nil
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}
