package rackblox

// Benchmarks of the paper's experiments and of the simulator itself.

import (
	"strings"
	"testing"

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
