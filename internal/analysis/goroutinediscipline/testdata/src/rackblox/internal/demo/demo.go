// Package demo is a goroutinediscipline fixture: an internal package
// outside internal/sim, where every `go` statement is a finding — even
// a file named shardrun.go, since the carve-out is the sim package's
// runner specifically, not a filename convention.
package demo

func fansOut(work []func()) {
	for _, w := range work {
		go w() // want "goroutine spawned outside the worker pool"
	}
}

func nestedSpawn(done chan struct{}) {
	helper := func() {
		go func() { close(done) }() // want "goroutine spawned outside the worker pool"
	}
	helper()
}
