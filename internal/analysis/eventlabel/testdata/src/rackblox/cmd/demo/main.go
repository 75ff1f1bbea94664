// cmd/ is outside the analyzer's scope: driver code may schedule
// unlabeled or string-labeled warmup events. No want comments.
package main

import "rackblox/internal/sim"

func main() {
	eng := &sim.Engine{}
	eng.At(0, func(sim.Time) {})
	eng.After(1, func(sim.Time) {})
	eng.AfterNamed(1, "warmup", func(sim.Time) {})
}
