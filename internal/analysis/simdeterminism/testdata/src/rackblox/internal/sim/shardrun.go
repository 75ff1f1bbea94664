package sim

// The worker-pool carve-out: this file mirrors the real shardrun.go,
// the one place in the tree where goroutines are sanctioned — the pool's
// tasks each own the state they touch, which keeps them unobservable.
// No findings here.
func startWorkers(windows []chan Time) {
	for range windows {
		ch := make(chan Time)
		go func() {
			for range ch {
			}
		}()
	}
}
