package rackblox

// Benchmarks of the paper's experiments and of the simulator itself.

import (
	"fmt"
	"strings"
	"testing"

	"rackblox/internal/core"
	"rackblox/internal/experiments"
)

// metricName builds a whitespace-free unit label for ReportMetric.
func metricName(parts ...string) string {
	s := strings.Join(parts, "/")
	s = strings.NewReplacer(" ", "_", "(", "", ")", "", "\t", "_").Replace(s)
	return s
}

// benchScale shrinks the measured windows so the full suite stays in
// benchmark-friendly time while preserving the comparative shape. It
// MUST match the scale of the checked-in BENCH_*.json trajectory (0.25,
// recorded in the file's "scale" field) so benchmark runs and the
// trajectory are directly comparable.
const benchScale = experiments.Scale(0.25)

// BenchmarkExperiment regenerates every experiment of the registry
// (internal/experiments) at benchScale, one sub-benchmark per id, and
// reports each row of the entry's headline column as a custom unit, so
// `go test -bench=Experiment -benchmem` prints the same series the paper
// plots. cmd/rackbench runs the same experiments at full scale.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range experiments.All() {
		b.Run(e.ID, func(b *testing.B) {
			var tables []*experiments.Table
			for i := 0; i < b.N; i++ {
				var err error
				if tables, err = experiments.ByID(e.ID, benchScale, experiments.Options{}); err != nil {
					b.Fatal(err)
				}
			}
			reported := 0
			for _, t := range tables {
				for _, r := range t.Rows {
					if v, ok := r.Values[e.Headline]; ok {
						b.ReportMetric(v, metricName(t.ID, r.Series, r.X))
						reported++
					}
				}
			}
			if reported == 0 {
				b.Fatalf("%s: headline column %q is in no row", e.ID, e.Headline)
			}
		})
	}
}

// BenchmarkShardedSoak drives the sharded soak model (the figsh
// workload) in parallel mode at 1..16 rack shards, putting the shard
// scheduler's hot path — window computation, mailbox merge, worker
// barrier — on the benchmark trajectory. events/op reports the model's
// deterministic event count per benchmark iteration; wall-clock scaling
// across the sub-benchmarks is bounded by GOMAXPROCS, so compare shard
// counts only on multi-core hosts. The sequential path keeps its alloc
// gate via BenchmarkSingleRackRun; this benchmark deliberately does not
// assert allocations, since per-shard queues scale with the rack count.
func BenchmarkShardedSoak(b *testing.B) {
	for _, racks := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("racks=%d", racks), func(b *testing.B) {
			cfg := core.ShardedClusterConfig{
				Racks:             racks,
				ServersPerRack:    64,
				ChainsPerRack:     64,
				OpsPerRack:        20_000,
				CrossRackPermille: 20,
				Seed:              1,
			}
			var events uint64
			for i := 0; i < b.N; i++ {
				res := core.RunShardedCluster(cfg, true)
				events = res.Events
			}
			b.ReportMetric(float64(events), "events/op")
		})
	}
}

// BenchmarkSingleRackRun is the microbenchmark of one end-to-end rack run,
// useful for profiling the simulator itself.
func BenchmarkSingleRackRun(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Duration = 100 * 1_000_000 // 100ms of virtual time
	cfg.Warmup = 50 * 1_000_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
