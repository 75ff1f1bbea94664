// Package sim is a goroutinediscipline fixture: the worker-pool file
// (shardrun.go) is the one sanctioned concurrency site; a goroutine in
// any other file of the same package is still a finding.
package sim

// Time is virtual simulation time in nanoseconds.
type Time int64

// RunUntil is a stand-in for the engine's window execution.
func RunUntil(end Time) {}

func sneaksConcurrencyIntoTheEnginePackage(done chan struct{}) {
	go func() { close(done) }() // want "goroutine spawned outside the worker pool"
}
