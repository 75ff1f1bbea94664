package experiments

import (
	"rackblox/internal/core"
	"rackblox/internal/flash"
	"rackblox/internal/netsim"
	"rackblox/internal/sched"
	"rackblox/internal/stats"
	"rackblox/internal/workload"
)

// mixes are the YCSB write fractions of Figs. 9-12 and 15-16.
var mixes = []float64{0, 0.05, 0.2, 0.5, 0.8, 0.95, 1.0}

func mixLabel(writeFrac float64) string {
	return workload.Mix(int(100 - writeFrac*100 + 0.5))
}

// ycsbGrid is the YCSB mix x system grid of Figs. 9-12 and 15-16.
func ycsbGrid(scale Scale) []cell {
	var cells []cell
	for _, mix := range mixes {
		for _, sys := range core.Systems() {
			cfg := baseConfig(scale)
			cfg.System = sys
			cfg.Workload.WriteFrac = mix
			cells = append(cells, cell{series: sys.String(), x: mixLabel(mix), cfg: cfg})
		}
	}
	return cells
}

// benchGrid is the BenchBase workload x system grid of Figs. 13-14.
func benchGrid(scale Scale) []cell {
	var cells []cell
	for _, name := range workload.Names() {
		for _, sys := range core.Systems() {
			cfg := baseConfig(scale)
			cfg.System = sys
			cfg.Workload = core.WorkloadSpec{Name: name, MeanGap: cfg.Workload.MeanGap}
			cells = append(cells, cell{series: sys.String(), x: name, cfg: cfg})
		}
	}
	return cells
}

// Read views skip the write-only mix, write views the read-only one.
func hasReads(r *run) bool  { return r.cfg.Workload.WriteFrac < 1 }
func hasWrites(r *run) bool { return r.cfg.Workload.WriteFrac > 0 }

func isVDC(r *run) bool { return r.cfg.System == core.VDC }

// normalized is the view of Figs. 9-11 and 13: one latency statistic per
// run, and the same normalized to VDC within each x group.
func normalized(id, title string, runs []run, metric extractor) *Table {
	return tabulate(id, title, runs, map[string]extractor{
		"value":       metric,
		"norm_vs_vdc": relative(metric, isVDC, false),
	}, "value", "norm_vs_vdc")
}

// ycsbLatency is Figs. 9-11: one statistic of the read and of the write
// latency across YCSB mixes, as two views over one grid.
func ycsbLatency(id, fig, stat string, of func(stats.Dist) float64) func(Scale, Options) []*Table {
	return func(scale Scale, opt Options) []*Table {
		runs := sweep(id, opt, ycsbGrid(scale)...)
		return []*Table{
			normalized(fig+"a", stat+" read latency (ms), YCSB mixes", where(runs, hasReads),
				func(r *run) float64 { return of(r.reads) }),
			normalized(fig+"b", stat+" write latency (ms), YCSB mixes", where(runs, hasWrites),
				func(r *run) float64 { return of(r.writes) }),
		}
	}
}

// fig12: throughput across mixes, including both pure mixes.
func fig12(scale Scale, opt Options) []*Table {
	return []*Table{tabulate("Fig12", "Throughput (KIOPS), YCSB mixes",
		sweep("fig12", opt, ycsbGrid(scale)...), nil, "kiops")}
}

// fig13: P99.9 read/write latency for the five BenchBase workloads.
func fig13(scale Scale, opt Options) []*Table {
	runs := sweep("fig13", opt, benchGrid(scale)...)
	return []*Table{
		normalized("Fig13a", "P99.9 read latency (ms), BenchBase workloads", runs, readP999),
		normalized("Fig13b", "P99.9 write latency (ms), BenchBase workloads", runs,
			func(r *run) float64 { return p999(r.writes) }),
	}
}

// fig14: throughput for the BenchBase workloads.
func fig14(scale Scale, opt Options) []*Table {
	return []*Table{tabulate("Fig14", "Throughput (KIOPS), BenchBase workloads",
		sweep("fig14", opt, benchGrid(scale)...), nil, "kiops")}
}

// fig15: P99.9 latency breakdown — storage-only vs end-to-end.
func fig15(scale Scale, opt Options) []*Table {
	runs := sweep("fig15", opt, ycsbGrid(scale)...)
	return []*Table{
		tabulate("Fig15a", "P99.9 read latency breakdown (ms)", where(runs, hasReads), map[string]extractor{
			"total":   readP999,
			"storage": func(r *run) float64 { return p999(r.Recorder.ReadStorage()) },
		}, "total", "storage"),
		tabulate("Fig15b", "P99.9 write latency breakdown (ms)", where(runs, hasWrites), map[string]extractor{
			"total":   func(r *run) float64 { return p999(r.writes) },
			"storage": func(r *run) float64 { return p999(r.Recorder.WriteStorage()) },
		}, "total", "storage"),
	}
}

// fig16: cumulative distribution of read latency (P98.5..P99.9) per mix.
func fig16(scale Scale, opt Options) []*Table {
	return []*Table{tabulate("Fig16", "Read latency tail CDF (ms)",
		where(sweep("fig16", opt, ycsbGrid(scale)...), hasReads), nil, "p98.5", "p99", "p99.5", "p99.9")}
}

// coordination appends one scheduler setting's pair of RackBlox runs for
// Figs. 17-18: coordinated I/O forced off (series name), then forced on
// (series "RackBlox (name)").
func coordination(cells []cell, name string, cfg core.Config) []cell {
	cfg.System = core.RackBlox
	for _, override := range []int{-1, 1} {
		cfg.CoordinatedOverride = override
		series := name
		if override > 0 {
			series = "RackBlox (" + name + ")"
		}
		cells = append(cells, cell{series: series, x: mixLabel(cfg.Workload.WriteFrac), cfg: cfg})
	}
	return cells
}

// coordinated is the view of Figs. 17-18: P99.9 reads, and the speedup
// of each run over its scheduler's uncoordinated run.
func coordinated(id, title string, runs []run) []*Table {
	uncoordinated := func(r *run) bool { return r.cfg.CoordinatedOverride < 0 }
	return []*Table{tabulate(id, title, runs, map[string]extractor{
		"value":           readP999,
		"speedup_vs_base": relative(readP999, uncoordinated, true),
	}, "value", "speedup_vs_base")}
}

// fig17: coordinated I/O under different storage schedulers, P99.9 reads.
func fig17(scale Scale, opt Options) []*Table {
	var cells []cell
	for _, mix := range []float64{0.2, 0.5} {
		for _, pol := range []sched.Policy{sched.FIFO, sched.Deadline, sched.Kyber} {
			cfg := baseConfig(scale)
			cfg.SchedPolicy = pol
			cfg.Workload.WriteFrac = mix
			cells = coordination(cells, pol.String(), cfg)
		}
	}
	return coordinated("Fig17", "P99.9 read latency (ms) by storage scheduler", sweep("fig17", opt, cells...))
}

// fig18: coordinated I/O under different network schedulers, P99.9 reads.
func fig18(scale Scale, opt Options) []*Table {
	var cells []cell
	for _, q := range []string{"FQ", "Priority", "TB"} {
		for _, mix := range []float64{0.2, 0.5} {
			cfg := baseConfig(scale)
			cfg.Qdisc = q
			cfg.Workload.WriteFrac = mix
			cells = coordination(cells, q, cfg)
		}
	}
	return coordinated("Fig18", "P99.9 read latency (ms) by network scheduler", sweep("fig18", opt, cells...))
}

func netProfiles() []netsim.Profile {
	return []netsim.Profile{netsim.ProfileFast(), netsim.ProfileMedium(), netsim.ProfileSlow()}
}

// deviceGrid is the SSD x network grid of Figs. 19-20: VDC, then
// RackBlox, on every device and network profile at one YCSB write
// fraction, labelled by system and "device+network".
func deviceGrid(scale Scale, writeFrac float64) []cell {
	var cells []cell
	for _, dev := range []flash.Profile{flash.ProfileOptane(), flash.ProfileIntelDC(), flash.ProfilePSSD()} {
		for _, net := range netProfiles() {
			for _, sys := range []core.System{core.VDC, core.RackBlox} {
				cfg := baseConfig(scale)
				cfg.System = sys
				cfg.Device = dev
				cfg.Net = net
				cfg.Workload.WriteFrac = writeFrac
				cells = append(cells, cell{series: sys.String(), x: dev.Name + "+" + net.Name, cfg: cfg})
			}
		}
	}
	return cells
}

// fig19: read tail CDF of YCSB-A for every SSD x network combination.
func fig19(scale Scale, opt Options) []*Table {
	return []*Table{tabulate("Fig19", "YCSB-A read tail (ms), SSD x network grid",
		sweep("fig19", opt, deviceGrid(scale, 0.5)...), nil, "p98.5", "p99", "p99.5", "p99.9")}
}

// fig20: P99.9 read speedup of RackBlox over VDC for YCSB-A/B/C across
// the device x network grid, one row per VDC/RackBlox pair.
func fig20(scale Scale, opt Options) []*Table {
	var cells []cell
	for _, y := range []struct {
		name string
		frac float64
	}{{"YCSB-A", 0.5}, {"YCSB-B", 0.05}, {"YCSB-C", 0.0}} {
		for _, c := range deviceGrid(scale, y.frac) {
			cells = append(cells, cell{series: c.x, x: y.name, label: c.series + "/" + c.x + "/" + y.name, cfg: c.cfg})
		}
	}
	runs := sweep("fig20", opt, cells...)
	t := &Table{ID: "Fig20", Title: "P99.9 read speedup vs VDC (x)", Cols: []string{"speedup"}}
	for i := 0; i < len(runs); i += 2 {
		vdc, rb := runs[i], runs[i+1]
		t.Rows = append(t.Rows, Row{Series: vdc.series, X: vdc.x,
			Values: map[string]float64{"speedup": stats.Speedup(vdc.reads.P999(), rb.reads.P999())}})
	}
	return []*Table{t}
}

// fig21: software- vs hardware-isolated vSSD read tails (YCSB 50/50).
func fig21(scale Scale, opt Options) []*Table {
	var cells []cell
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
			cells = append(cells, cell{series: sys.String(), x: x, cfg: cfg})
		}
	}
	return []*Table{tabulate("Fig21", "Read tail (ms) by isolation class",
		sweep("fig21", opt, cells...), nil, "p98.5", "p99", "p99.5", "p99.9")}
}

// gcAblation compares redirect-only against the full delay+background
// coordinated GC, a design-choice ablation beyond the paper's figures.
func gcAblation(scale Scale, opt Options) []*Table {
	var cells []cell
	base := baseConfig(scale)
	for _, v := range []struct {
		name string
		soft float64 // soft threshold; == gc threshold disables delaying
	}{
		{"redirect-only", base.GCThreshold + 0.001},
		{"redirect+delay", base.SoftThreshold},
	} {
		cfg := baseConfig(scale)
		cfg.System = core.RackBlox
		cfg.SoftThreshold = v.soft
		cells = append(cells, cell{series: v.name, x: "YCSB 50/50", cfg: cfg})
	}
	return []*Table{tabulate("GCAblation", "Coordinated GC ablation, P99.9 reads (ms)",
		sweep("gcablation", opt, cells...), map[string]extractor{"value": readP999}, "value", "gc_events", "delayed")}
}
