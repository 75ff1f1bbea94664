// Package goroutinediscipline implements the rackvet analyzer that pins
// where concurrency may enter the simulator.
//
// The simulator has one worker pool, sim.Do in internal/sim's
// shardrun.go, and two callers run tasks on it: sim.ShardGroup.Run runs
// each window's shards, and core.NewRack runs one task per server to
// precondition its devices and one per volume to build its workload
// generator. Both keep their results byte-identical to a one-goroutine
// run by the same structural argument: a task touches only state of its
// own (its shard's engine and outgoing mailboxes; its server's flash
// array and FTLs; its volume's generator), and everything shared is
// ordered before or after the tasks (the mailbox merge at the window
// barrier; the streams' seeds drawn from the rack's stream in build
// order). That argument holds precisely because
// the pool is the ONLY place goroutines exist — a `go` statement
// anywhere else in internal/ would reintroduce scheduler interleaving
// the replay tests cannot see until it has already corrupted a result.
//
// Unlike simdeterminism (which guards the event-path packages), this
// check covers all of internal/: observers, codecs, and tooling helpers
// are called from the event path, so none of them may smuggle in
// concurrency either. Tests are exempt — they own their goroutines and
// the race detector watches them. There is deliberately no directive
// escape hatch: new concurrency runs as tasks of sim.Do or not at all.
package goroutinediscipline

import (
	"go/ast"
	"strings"

	"rackblox/internal/analysis"
)

// Analyzer restricts `go` statements to the worker-pool file.
var Analyzer = &analysis.Analyzer{
	Name: "goroutinediscipline",
	Doc: "restrict `go` statements to the worker pool (internal/sim shardrun.go); " +
		"anywhere else in internal/ goroutine interleaving breaks bit-exact replay",
	Applies: applies,
	Run:     run,
}

func applies(pkgPath string) bool {
	return strings.HasPrefix(pkgPath, "rackblox/internal/")
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if pass.InWorkerPoolFile(g.Pos()) {
				return true
			}
			pass.Reportf(g.Pos(),
				"goroutine spawned outside the worker pool: only internal/sim's shardrun.go "+
					"may introduce concurrency (sim.Do's workers, which run ShardGroup windows "+
					"and core.NewRack's per-server and per-volume set-up); run the work as "+
					"sim.Do tasks instead, since everywhere else interleaving breaks bit-exact replay")
			return true
		})
	}
	return nil
}
