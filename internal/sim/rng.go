package sim

import (
	"math"
	"math/rand"
)

// RNG wraps math/rand with a component-local source so that independent
// components draw from independent, reproducible streams. Sharing one
// global stream would make one component's draw count perturb another's.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent child stream; the label keeps child seeds
// distinct even when several children fork from the same parent state.
func (g *RNG) Fork(label int64) *RNG { return NewRNG(g.ForkSeed(label)) }

// ForkSeed advances g exactly as Fork does and returns the child's seed,
// so that NewRNG(seed) can build the child later, on another goroutine.
func (g *RNG) ForkSeed(label int64) int64 {
	const goldenGamma = 0x9e3779b97f4a7c15
	return g.r.Int63() ^ int64(uint64(label)*goldenGamma)
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Int63n returns a uniform value in [0, n).
func (g *RNG) Int63n(n int64) int64 { return g.r.Int63n(n) }

// Exp returns an exponentially distributed duration with the given mean.
// Used for Poisson arrival processes.
func (g *RNG) Exp(mean Time) Time {
	if mean <= 0 {
		return 0
	}
	d := Time(g.r.ExpFloat64() * float64(mean))
	if d < 0 {
		return 0
	}
	return d
}

// LogNormal returns a log-normally distributed value with the given median
// and sigma (shape). Network latency bodies are well modelled by it.
func (g *RNG) LogNormal(median float64, sigma float64) float64 {
	return median * math.Exp(sigma*g.r.NormFloat64())
}

// Pareto returns a Pareto-tailed value >= xm with tail index alpha.
// Heavy network-latency tails use it.
func (g *RNG) Pareto(xm, alpha float64) float64 {
	u := g.r.Float64()
	for u == 0 {
		u = g.r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Zipf draws zipfian-distributed ranks in [0, n) with skew theta.
// YCSB's request distribution is zipfian with theta ~0.99.
type Zipf struct {
	z *rand.Zipf
	n uint64
}

// NewZipf builds a zipfian sampler over [0, n). theta must be > 1 per
// math/rand's parameterization; YCSB's 0.99 is mapped to s = 1.01 to keep
// comparable skew while satisfying the stdlib constraint.
func NewZipf(g *RNG, theta float64, n uint64) *Zipf {
	s := theta
	if s <= 1 {
		s = 1.0 + (1.0 - s) + 0.01
	}
	return &Zipf{z: rand.NewZipf(g.r, s, 1, n-1), n: n}
}

// Next returns the next zipfian rank in [0, n).
func (z *Zipf) Next() uint64 { return z.z.Uint64() }

// N returns the sampler's key-space size.
func (z *Zipf) N() uint64 { return z.n }
