package sim

// startWorkers mirrors the real worker pool: the one file where `go`
// statements are allowed, because every task the pool runs owns the
// state it touches, which makes the concurrency unobservable.
func startWorkers(windows []chan Time) {
	for range windows {
		ch := make(chan Time)
		go func() {
			for end := range ch {
				RunUntil(end)
			}
		}()
	}
}
