// Package wear simulates RackBlox's two-level rack-scale wear leveling
// (§3.6, Figs. 8, 22, 23): a local (intra-server) balancer that swaps the
// most-worn SSD's workload with the SSD wearing slowest, and a global
// (inter-server) balancer that does the same across servers on a longer
// period. Time advances in days; wear is the average per-block erase
// count φ, and imbalance is λ = φ_max / φ_avg, bounded by 1+γ.
package wear

import (
	"fmt"

	"rackblox/internal/sim"
	"rackblox/internal/workload"
)

// Config parameterizes the wear simulation.
type Config struct {
	// Servers, SSDsPerServer, VSSDsPerSSD give the rack shape
	// (Fig. 22/23 use 32 x 16 x 4).
	Servers       int
	SSDsPerServer int
	VSSDsPerSSD   int
	// LocalPeriodDays is the intra-server swap period (12 days per §3.6);
	// 0 disables local swapping.
	LocalPeriodDays int
	// GlobalPeriodDays is the inter-server swap period (8 weeks = 56 days
	// by default); 0 disables global swapping.
	GlobalPeriodDays int
	// Gamma is the permitted imbalance: swaps trigger when λ > 1+γ.
	Gamma float64
	// SwapCostErases is the wear charged to each SSD involved in a swap
	// (migrating the data costs roughly one full-drive write; the paper
	// prices the worst case at 0.5% of lifetime).
	SwapCostErases float64
	// BaseEraseRate is erases/block/day caused by a 100%-write vSSD.
	BaseEraseRate float64
	// Seed drives workload assignment jitter.
	Seed int64
	// ReplaceProbPerYear is the chance an SSD fails and is replaced with
	// a fresh (zero-wear) one, per SSD per year.
	ReplaceProbPerYear float64
}

// DefaultConfig reproduces the Fig. 22/23 setup.
func DefaultConfig() Config {
	return Config{
		Servers:          32,
		SSDsPerServer:    16,
		VSSDsPerSSD:      4,
		LocalPeriodDays:  12,
		GlobalPeriodDays: 56,
		Gamma:            0.1,
		SwapCostErases:   1.0,
		BaseEraseRate:    2.0,
		Seed:             1,
	}
}

// vslot is one vSSD workload placement: a per-day erase rate.
type vslot struct {
	Workload string
	Rate     float64
}

// SSD is one drive's wear state.
type SSD struct {
	// Wear is the average per-block erase count to date (φ).
	Wear float64
	// Slots are the vSSD workloads currently placed on this drive.
	Slots []vslot
	// Swaps counts migrations involving this drive.
	Swaps int
}

// Rate returns the drive's current total erase rate per day.
func (s *SSD) Rate() float64 {
	var r float64
	for _, v := range s.Slots {
		r += v.Rate
	}
	return r
}

// Rack is the wear-simulation state.
type Rack struct {
	cfg  Config
	SSDs [][]*SSD // [server][ssd]
	day  int
	rng  *sim.RNG

	// LocalSwaps / GlobalSwaps / Replacements count events.
	LocalSwaps   int
	GlobalSwaps  int
	Replacements int
}

// New builds the rack and assigns vSSD workloads round-robin across
// servers (the load-balancing placement of modern infrastructures, §4.6),
// cycling through the Table 2 workloads.
func New(cfg Config) (*Rack, error) {
	if cfg.Servers < 1 || cfg.SSDsPerServer < 1 || cfg.VSSDsPerSSD < 1 {
		return nil, fmt.Errorf("wear: invalid rack shape %+v", cfg)
	}
	if cfg.Gamma <= 0 {
		cfg.Gamma = 0.1
	}
	if cfg.BaseEraseRate <= 0 {
		cfg.BaseEraseRate = 2.0
	}
	r := &Rack{cfg: cfg, rng: sim.NewRNG(cfg.Seed)}
	r.SSDs = make([][]*SSD, cfg.Servers)
	for s := range r.SSDs {
		r.SSDs[s] = make([]*SSD, cfg.SSDsPerServer)
		for d := range r.SSDs[s] {
			r.SSDs[s][d] = &SSD{}
		}
	}
	// Round-robin vSSD placement across servers, then SSDs.
	rows := workload.Table2()[1:] // skip the configurable YCSB row
	total := cfg.Servers * cfg.SSDsPerServer * cfg.VSSDsPerSSD
	for i := 0; i < total; i++ {
		srv := i % cfg.Servers
		dev := (i / cfg.Servers) % cfg.SSDsPerServer
		row := rows[i%len(rows)]
		// Jitter separates instances of the same workload (+/-30%).
		jitter := 0.7 + float64(0.6*r.rng.Float64())
		rate := cfg.BaseEraseRate * row.WritePct / 100 * jitter
		r.SSDs[srv][dev].Slots = append(r.SSDs[srv][dev].Slots,
			vslot{Workload: row.Name, Rate: rate})
	}
	return r, nil
}

// Day returns the simulated day count.
func (r *Rack) Day() int { return r.day }

// StepDay advances one day: wear accrues, failures replace drives, and the
// balancers run on their periods.
func (r *Rack) StepDay() {
	r.day++
	for _, server := range r.SSDs {
		for _, ssd := range server {
			ssd.Wear += ssd.Rate()
		}
	}
	if p := r.cfg.ReplaceProbPerYear / 365; p > 0 {
		for _, server := range r.SSDs {
			for _, ssd := range server {
				if r.rng.Bool(p) {
					ssd.Wear = 0
					ssd.Swaps = 0
					r.Replacements++
				}
			}
		}
	}
	if r.cfg.LocalPeriodDays > 0 && r.day%r.cfg.LocalPeriodDays == 0 {
		for s := range r.SSDs {
			r.localBalance(s)
		}
	}
	if r.cfg.GlobalPeriodDays > 0 && r.day%r.cfg.GlobalPeriodDays == 0 {
		r.globalBalance()
	}
}

// RunDays advances n days.
func (r *Rack) RunDays(n int) {
	for i := 0; i < n; i++ {
		r.StepDay()
	}
}

// RunWeeks advances n weeks.
func (r *Rack) RunWeeks(n int) { r.RunDays(7 * n) }

// localBalance swaps, within one server, the workload of the most-worn
// SSD with that of the SSD with the minimum wear rate — the relaxed
// FlashBlox-style policy of §3.6 — when λ exceeds 1+γ.
func (r *Rack) localBalance(server int) {
	ssds := r.SSDs[server]
	if r.imbalance(ssds) <= 1+r.cfg.Gamma {
		return
	}
	maxWear := maxBy(ssds, func(s *SSD) float64 { return s.Wear })
	minRate := minBy(ssds, func(s *SSD) float64 { return s.Rate() })
	if maxWear == minRate {
		return
	}
	r.swap(maxWear, minRate)
	r.LocalSwaps++
}

// globalBalance swaps across servers: the most-worn SSD in the rack
// exchanges workloads with the slowest-wearing SSD of the least-worn
// server.
func (r *Rack) globalBalance() {
	if r.RackImbalance() <= 1+r.cfg.Gamma {
		return
	}
	var hottest *SSD
	for _, server := range r.SSDs {
		if c := maxBy(server, func(s *SSD) float64 { return s.Wear }); hottest == nil || c.Wear > hottest.Wear {
			hottest = c
		}
	}
	coolestServer := r.SSDs[0]
	coolestAvg := avgWear(r.SSDs[0])
	for _, server := range r.SSDs[1:] {
		if a := avgWear(server); a < coolestAvg {
			coolestAvg = a
			coolestServer = server
		}
	}
	coolest := minBy(coolestServer, func(s *SSD) float64 { return s.Rate() })
	if hottest == coolest {
		return
	}
	r.swap(hottest, coolest)
	r.GlobalSwaps++
}

// swap exchanges workload placements and charges migration wear.
func (r *Rack) swap(a, b *SSD) {
	a.Slots, b.Slots = b.Slots, a.Slots
	a.Wear += r.cfg.SwapCostErases
	b.Wear += r.cfg.SwapCostErases
	a.Swaps++
	b.Swaps++
}

func (r *Rack) imbalance(ssds []*SSD) float64 {
	max, sum := 0.0, 0.0
	for _, s := range ssds {
		if s.Wear > max {
			max = s.Wear
		}
		sum += s.Wear
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(len(ssds)))
}

// ServerImbalance returns λ = φ_max/φ_avg within one server (Fig. 22).
func (r *Rack) ServerImbalance(server int) float64 {
	return r.imbalance(r.SSDs[server])
}

// RackImbalance returns λ across every SSD in the rack (Fig. 23).
func (r *Rack) RackImbalance() float64 {
	var all []*SSD
	for _, server := range r.SSDs {
		all = append(all, server...)
	}
	return r.imbalance(all)
}

// ServerWears returns per-SSD wear for one server, for Fig. 22 bars.
func (r *Rack) ServerWears(server int) []float64 {
	out := make([]float64, len(r.SSDs[server]))
	for i, s := range r.SSDs[server] {
		out[i] = s.Wear
	}
	return out
}

func avgWear(ssds []*SSD) float64 {
	var sum float64
	for _, s := range ssds {
		sum += s.Wear
	}
	return sum / float64(len(ssds))
}

func maxBy(ssds []*SSD, key func(*SSD) float64) *SSD {
	best := ssds[0]
	for _, s := range ssds[1:] {
		if key(s) > key(best) {
			best = s
		}
	}
	return best
}

func minBy(ssds []*SSD, key func(*SSD) float64) *SSD {
	best := ssds[0]
	for _, s := range ssds[1:] {
		if key(s) < key(best) {
			best = s
		}
	}
	return best
}
