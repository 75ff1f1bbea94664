package demo

// A shardrun.go outside internal/sim earns no exemption.
func impostorRunner(done chan struct{}) {
	go func() { close(done) }() // want "goroutine spawned outside the worker pool"
}
