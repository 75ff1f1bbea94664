// Package core is a simdeterminism fixture: map-range bodies reaching a
// determinism sink (directly or through local calls), global math/rand,
// and goroutine spawns are findings; commutative bodies and annotated
// ranges are not.
package core

import (
	"math/rand"

	"rackblox/internal/sim"
	"rackblox/internal/trace"
)

// Result mimics the real exported result surface.
type Result struct {
	Total int64
	Rows  []int64
}

var labelWork = sim.NewLabel("core.work")

func schedulesInMapOrder(eng *sim.Engine, m map[int]sim.Time) {
	for _, d := range m { // want "map iteration order .* schedules engine events"
		eng.ScheduleAfter(d, labelWork, sim.EventFunc(func(sim.Time) {}))
	}
}

func postsInMapOrder(g *sim.ShardGroup, m map[int]sim.Time) {
	for _, at := range m { // want "map iteration order .* schedules engine events"
		g.Post(0, 1, at, labelWork, sim.EventFunc(func(sim.Time) {}))
	}
}

// The string-named forms schedule too.
func namedInMapOrder(eng *sim.Engine, m map[int]sim.Time) {
	for _, d := range m { // want "map iteration order .* schedules engine events"
		eng.AfterNamed(d, "core.named", func(sim.Time) {})
	}
}

// Each admission, retune and settlement of a paced link may schedule
// its wakeup.
func admitsInMapOrder(p *sim.PacedBandwidth, m map[int]int64) {
	for _, b := range m { // want "map iteration order .* schedules engine events"
		p.Admit(b, func(sim.Time) {})
	}
}

func admitsHandlersInMapOrder(p *sim.PacedBandwidth, m map[int]int64, h sim.Handler) {
	for _, b := range m { // want "map iteration order .* schedules engine events"
		p.AdmitHandler(b, h)
	}
}

func retunesInMapOrder(p *sim.PacedBandwidth, m map[int]float64) {
	for _, rate := range m { // want "map iteration order .* schedules engine events"
		p.SetRate(rate)
	}
}

func settlesInMapOrder(p *sim.PacedBandwidth, m map[int]int64) {
	for _, d := range m { // want "map iteration order .* schedules engine events"
		p.Consume(d)
	}
}

func writesResultInMapOrder(res *Result, m map[int]int64) {
	for _, v := range m { // want "map iteration order .* writes exported result state"
		res.Total = res.Total*31 + v
	}
}

func appendsRowsInMapOrder(res *Result, m map[int]int64) {
	for _, v := range m { // want "writes exported result state"
		res.Rows = append(res.Rows, v)
	}
}

func observesInMapOrder(m map[int]int64) {
	for _, v := range m { // want "records trace/stats samples"
		trace.Record(v)
	}
}

func drawsInMapOrder(r *sim.RNG, m map[int]bool) int {
	n := 0
	for k := range m { // want "draws randomness"
		if r.Intn(2) == k%2 {
			n++
		}
	}
	return n
}

// The sink is two local calls deep: reachability is a transitive
// fixpoint, not a single-hop check.
func viaHelpers(eng *sim.Engine, m map[int]sim.Time) {
	for _, d := range m { // want "schedules engine events"
		kick(eng, d)
	}
}

func kick(eng *sim.Engine, d sim.Time) { kickDeeper(eng, d) }

func kickDeeper(eng *sim.Engine, d sim.Time) {
	eng.AfterNamed(d, "core.kick", func(sim.Time) {})
}

// Commutative bodies — counting, summing, max — never observe order.
func maxOnly(m map[int]int64) int64 {
	var top int64
	for _, v := range m {
		if v > top {
			top = v
		}
	}
	return top
}

// The directive asserts a human checked order-insensitivity the machine
// cannot, end-of-line or own-line.
func annotated(eng *sim.Engine, m map[int]sim.Time, res *Result) {
	//rackvet:commutative identical zero-payload probes, order checked by hand
	for range m {
		eng.AfterNamed(0, "core.probe", func(sim.Time) {})
	}
	for _, v := range m { //rackvet:commutative sum commutes
		res.Total += int64(v)
	}
}

// Slice iteration is deterministic; only maps are checked.
func sliceIsFine(eng *sim.Engine, ds []sim.Time) {
	for _, d := range ds {
		eng.AfterNamed(d, "core.slice", func(sim.Time) {})
	}
}

func seedsGlobal() int {
	return rand.Intn(6) // want "global math/rand.Intn"
}

func reseedsGlobal() {
	rand.Seed(42) // want "global math/rand.Seed"
}

// Constructing explicit generators is the sanctioned pattern.
func forksGenerator() *rand.Rand {
	return rand.New(rand.NewSource(1))
}

func spawns(done chan struct{}) {
	go func() { close(done) }() // want "goroutine spawn in simulation code"
}

// A bare directive still suppresses the range finding, but is itself a
// finding: the rationale is where the human's proof lives.
func bareAnnotated(res *Result, m map[int]int64) {
	//rackvet:commutative // want "bare //rackvet:commutative directive"
	for _, v := range m {
		res.Total += v
	}
}
