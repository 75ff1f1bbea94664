package simdeterminism_test

import (
	"testing"

	"rackblox/internal/analysis/analysistest"
	"rackblox/internal/analysis/simdeterminism"
)

// TestSimdeterminism exercises every sink kind (scheduling through label
// handles, string labels, and cross-shard posts; exported writes;
// observer calls; RNG draws; calls through function values), transitive
// reachability through local helpers, the //rackvet:commutative escape
// hatch (including the bare-directive finding), slice-range and
// commutative-body non-findings, global math/rand, goroutine spawns (with
// the shardrun.go carve-out), the _test.go allowlist, and the
// package-scope perimeter.
func TestSimdeterminism(t *testing.T) {
	analysistest.Run(t, simdeterminism.Analyzer,
		"rackblox/internal/core",
		"rackblox/internal/netsim",
		"rackblox/internal/replication",
		"rackblox/internal/sim",
	)
}
