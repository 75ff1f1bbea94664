package core

import (
	"testing"

	"rackblox/internal/flash"
	"rackblox/internal/netsim"
	"rackblox/internal/sched"
	"rackblox/internal/sim"
)

// shortConfig returns a config sized for unit-test speed: still long
// enough that GC triggers and every code path runs.
func shortConfig(sys System) Config {
	cfg := DefaultConfig()
	cfg.System = sys
	cfg.Warmup = 50 * sim.Millisecond
	cfg.Duration = 400 * sim.Millisecond
	return cfg
}

func TestSystemStrings(t *testing.T) {
	want := map[System]string{
		VDC:              "VDC",
		RackBloxSoftware: "RackBlox (Software)",
		RackBloxCoordIO:  "RackBlox-Coord I/O",
		RackBlox:         "RackBlox",
	}
	for sys, s := range want {
		if sys.String() != s {
			t.Errorf("%d.String() = %q, want %q", sys, sys.String(), s)
		}
	}
	if System(99).String() != "System(99)" {
		t.Error("unknown system string")
	}
	if len(Systems()) != 4 {
		t.Error("Systems() must list all four")
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"one server", func(c *Config) { c.StorageServers = 1 }},
		{"zero pairs", func(c *Config) { c.VSSDPairs = 0 }},
		{"bad geometry", func(c *Config) { c.Geometry.Channels = 0 }},
		{"too many pairs", func(c *Config) { c.VSSDPairs = 64 }},
		{"threshold order", func(c *Config) { c.SoftThreshold = GCThreshold }},
		{"restore delta", func(c *Config) { c.RestoreDelta = 0 }},
		{"utilization", func(c *Config) { c.Utilization = 1.5 }},
		{"keyspace", func(c *Config) { c.KeyspaceFrac = 0 }},
		{"mean gap", func(c *Config) { c.Workload.MeanGap = 0 }},
		{"duration", func(c *Config) { c.Duration = 0 }},
		{"servers past the address plan", func(c *Config) { c.StorageServers = 241 }},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		c.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", c.name)
		}
	}
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestDefaultQdiscPerSystem(t *testing.T) {
	for sys, want := range map[System]string{
		VDC: "TB", RackBloxSoftware: "TB", RackBloxCoordIO: "None", RackBlox: "None",
	} {
		cfg := DefaultConfig()
		cfg.System = sys
		if got := cfg.defaultQdisc(); got != want {
			t.Errorf("%v default qdisc = %q, want %q", sys, got, want)
		}
	}
	cfg := DefaultConfig()
	cfg.Qdisc = "FQ"
	if cfg.defaultQdisc() != "FQ" {
		t.Error("explicit qdisc overridden")
	}
}

func TestCoordinatedDerivation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.System = VDC
	if cfg.coordinated() {
		t.Error("VDC coordinated by default")
	}
	cfg.CoordinatedOverride = 1
	if !cfg.coordinated() {
		t.Error("override on ignored")
	}
	cfg.System = RackBlox
	cfg.CoordinatedOverride = -1
	if cfg.coordinated() {
		t.Error("override off ignored")
	}
}

func TestPreconditionLeavesTargetFreeRatio(t *testing.T) {
	r, err := NewRack(shortConfig(RackBlox))
	if err != nil {
		t.Fatal(err)
	}
	want := r.cfg.SoftThreshold + 0.06
	for _, pr := range r.pairs {
		for _, inst := range pr.insts {
			got := inst.v.FTL.FreeRatio()
			if got > want+0.06 || got < GCThreshold {
				t.Fatalf("vSSD %d preconditioned to %f, want ~%f", inst.id, got, want)
			}
		}
	}
}

func TestEndToEndSystemOrdering(t *testing.T) {
	// The paper's headline result: RackBlox's coordinated GC cuts the
	// P99.9 read latency well below VDC's; VDC never redirects.
	results := map[System]*Result{}
	for _, sys := range Systems() {
		cfg := shortConfig(sys)
		// Long enough for the uncoordinated systems' hold-level write
		// cache to warm and their free ratio to reach the hard threshold.
		cfg.Duration = 800 * sim.Millisecond
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
		results[sys] = res
		if res.Recorder.Len() < 2000 {
			t.Fatalf("%v: only %d samples", sys, res.Recorder.Len())
		}
	}
	vdc := results[VDC].Recorder.Reads().P999()
	rb := results[RackBlox].Recorder.Reads().P999()
	if rb >= vdc {
		t.Errorf("RackBlox read P99.9 %d >= VDC %d", rb, vdc)
	}
	if results[VDC].Switch.Redirected != 0 {
		t.Error("VDC redirected reads")
	}
	if results[RackBlox].Switch.Redirected == 0 {
		t.Error("RackBlox never redirected")
	}
	if results[RackBloxSoftware].SWRedirects == 0 {
		t.Error("RackBlox (Software) never redirected in software")
	}
	if results[RackBloxSoftware].Switch.Redirected != 0 {
		t.Error("RackBlox (Software) used switch redirection")
	}
	for _, sys := range Systems() {
		if results[sys].GCEvents == 0 {
			t.Errorf("%v: no GC events in a write-heavy run", sys)
		}
	}
	// Coordinated systems delay GC; uncoordinated ones cannot.
	if results[RackBlox].GCDelayed == 0 {
		t.Error("RackBlox never delayed GC")
	}
	if results[VDC].GCDelayed != 0 {
		t.Error("VDC delayed GC without coordination")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(shortConfig(RackBlox))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(shortConfig(RackBlox))
	if err != nil {
		t.Fatal(err)
	}
	if a.Recorder.Len() != b.Recorder.Len() {
		t.Fatalf("sample counts differ: %d vs %d", a.Recorder.Len(), b.Recorder.Len())
	}
	if a.Recorder.Reads().P999() != b.Recorder.Reads().P999() {
		t.Fatal("P99.9 differs between identical runs")
	}
	if a.GCEvents != b.GCEvents || a.Switch.Redirected != b.Switch.Redirected {
		t.Fatal("event counters differ between identical runs")
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := shortConfig(RackBlox)
	a, _ := Run(cfg)
	cfg.Seed = 2
	b, _ := Run(cfg)
	if a.Recorder.Reads().P50() == b.Recorder.Reads().P50() &&
		a.Recorder.Len() == b.Recorder.Len() &&
		a.GCEvents == b.GCEvents {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestWarmupFiltersEarlySamples(t *testing.T) {
	cfg := shortConfig(RackBlox)
	with, _ := Run(cfg)
	cfg.Warmup = 0
	cfg.Duration = 450 * sim.Millisecond
	without, _ := Run(cfg)
	if without.Recorder.Len() <= with.Recorder.Len() {
		t.Fatalf("warmup filtering did not reduce samples: %d vs %d",
			with.Recorder.Len(), without.Recorder.Len())
	}
}

func TestGCReplyLossForcesCollection(t *testing.T) {
	cfg := shortConfig(RackBlox)
	cfg.GCReplyDropRate = 1.0 // every gc_op reply lost
	// With soft GC unreachable, the free ratio must decay all the way to
	// the hard threshold before the forced path triggers; give it time.
	cfg.Duration = 1600 * sim.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.GCOpRetries == 0 {
		t.Error("no gc_op retransmissions under total reply loss")
	}
	if res.ForcedGCs == 0 {
		t.Error("regular GC not forced after retries exhausted")
	}
	// The system keeps serving I/O despite the control-plane failure.
	if res.Recorder.Len() < 2000 {
		t.Errorf("only %d samples under reply loss", res.Recorder.Len())
	}
}

func TestSoftwareIsolatedMode(t *testing.T) {
	cfg := shortConfig(RackBlox)
	cfg.SoftwareIsolated = true
	cfg.VSSDPairs = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recorder.Len() < 1000 {
		t.Fatalf("only %d samples in software-isolated mode", res.Recorder.Len())
	}
	if res.GCEvents == 0 {
		t.Error("no channel-group GC events")
	}
}

func TestSchedulerPoliciesEndToEnd(t *testing.T) {
	for _, pol := range []sched.Policy{sched.FIFO, sched.Deadline, sched.Kyber} {
		cfg := shortConfig(RackBlox)
		cfg.SchedPolicy = pol
		cfg.Duration = 200 * sim.Millisecond
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if res.Recorder.Len() < 1000 {
			t.Errorf("%v: only %d samples", pol, res.Recorder.Len())
		}
	}
}

func TestQdiscVariantsEndToEnd(t *testing.T) {
	for _, q := range []string{"TB", "FQ", "Priority"} {
		cfg := shortConfig(RackBlox)
		cfg.Qdisc = q
		cfg.Duration = 200 * sim.Millisecond
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if res.Recorder.Len() < 1000 {
			t.Errorf("%s: only %d samples", q, res.Recorder.Len())
		}
	}
}

func TestDeviceAndNetworkProfiles(t *testing.T) {
	for _, dev := range []flash.Profile{flash.ProfileOptane(), flash.ProfileIntelDC()} {
		for _, net := range []netsim.Profile{netsim.ProfileFast(), netsim.ProfileSlow()} {
			cfg := shortConfig(RackBlox)
			cfg.Device = dev
			cfg.Net = net
			cfg.Duration = 150 * sim.Millisecond
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", dev.Name, net.Name, err)
			}
			if res.Recorder.Len() < 500 {
				t.Errorf("%s/%s: only %d samples", dev.Name, net.Name, res.Recorder.Len())
			}
		}
	}
}

func TestBenchBaseWorkloadsEndToEnd(t *testing.T) {
	for _, name := range []string{"TPC-H", "Twitter"} {
		cfg := shortConfig(RackBlox)
		cfg.Workload = WorkloadSpec{Name: name, MeanGap: 200 * sim.Microsecond}
		cfg.Duration = 200 * sim.Millisecond
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		reads := res.Recorder.Reads().Len()
		writes := res.Recorder.Writes().Len()
		if name == "TPC-H" && writes > reads/10 {
			t.Errorf("TPC-H writes %d vs reads %d; expected read-dominated", writes, reads)
		}
		if name == "Twitter" && reads > writes/10 {
			t.Errorf("Twitter reads %d vs writes %d; expected write-dominated", reads, writes)
		}
	}
}

// TestNetworkLatencyInSamples: every sample's stages are non-negative and
// tile its lifetime, so they sum exactly to its Total — the identity
// stats.Recorder relies on to store no Total. It holds for replication
// under every system, software isolation, erasure coding whose clients
// retransmit through a server fail/revive (net-in counts from the first
// issue), LRC, and a ToR fail/revive.
func TestNetworkLatencyInSamples(t *testing.T) {
	swIso := shortConfig(RackBlox)
	swIso.SoftwareIsolated = true
	retransmit := recoveryConfig()
	retransmit.Scenario = []Event{FailServer(0, 120*sim.Millisecond), ReviveServer(0, 300*sim.Millisecond)}
	torCycle := recoveryConfig()
	torCycle.Scenario = []Event{FailToR(1, 100*sim.Millisecond), ReviveToR(1, 250*sim.Millisecond)}
	for _, tc := range []struct {
		name        string
		cfg         Config
		retransmits bool
	}{
		{"RackBlox", shortConfig(RackBlox), false},
		{"VDC", shortConfig(VDC), false},
		{"RackBlox-Software", shortConfig(RackBloxSoftware), false},
		{"software-isolation", swIso, false},
		{"RS-fail-revive", retransmit, true},
		{"LRC", lrcConfig(), false},
		{"ToR-fail-revive", torCycle, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.retransmits && res.ECRetransmits == 0 {
				t.Fatal("no client retransmitted")
			}
			samples := rawSamples(res)
			bad := 0
			for _, s := range samples {
				if s.NetIn < 0 || s.Queue < 0 || s.Device < 0 || s.NetOut < 0 ||
					s.NetIn+s.Queue+s.Device+s.NetOut != s.Total {
					if bad == 0 {
						t.Errorf("stages do not tile the total: %+v", s)
					}
					bad++
				}
			}
			if bad > 0 {
				t.Errorf("%d of %d samples with inconsistent breakdown", bad, len(samples))
			}
		})
	}
}

func TestThroughputReported(t *testing.T) {
	res, err := Run(shortConfig(RackBlox))
	if err != nil {
		t.Fatal(err)
	}
	iops := res.Recorder.Throughput()
	// 4 pairs at ~5k req/s each, minus window losses.
	if iops < 5_000 || iops > 40_000 {
		t.Fatalf("throughput = %f IOPS, outside plausible band", iops)
	}
}

func TestUnknownWorkloadPanicsAtBuild(t *testing.T) {
	cfg := shortConfig(RackBlox)
	cfg.Workload.Name = "bogus"
	defer func() {
		if recover() == nil {
			t.Error("unknown workload accepted")
		}
	}()
	NewRack(cfg)
}

func TestBounceRescuesSlippedReads(t *testing.T) {
	// Under a GC-heavy write mix, reads that race the switch's GC-bit
	// update are bounced back to the ToR instead of stalling behind the
	// collector.
	cfg := DefaultConfig()
	cfg.System = RackBlox
	cfg.Workload.WriteFrac = 0.8
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bounces == 0 {
		t.Fatal("no reads bounced despite heavy GC activity")
	}
	// Bounced reads re-enter the switch; Forwarded counts them again.
	if res.Switch.Forwarded == 0 {
		t.Fatal("switch forwarded nothing")
	}
}

func TestVDCNeverBounces(t *testing.T) {
	cfg := shortConfig(VDC)
	cfg.Workload.WriteFrac = 0.8
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bounces != 0 {
		t.Fatalf("VDC bounced %d reads without coordination", res.Bounces)
	}
}

func TestCFQEndToEnd(t *testing.T) {
	cfg := shortConfig(RackBlox)
	cfg.SchedPolicy = sched.CFQ
	cfg.Duration = 200 * sim.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recorder.Len() < 1000 {
		t.Fatalf("only %d samples under CFQ", res.Recorder.Len())
	}
}
