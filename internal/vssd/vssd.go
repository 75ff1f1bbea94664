// Package vssd implements SSD virtualization (§3.3, Fig. 4): a
// programmable SSD is carved into virtual SSDs that are either
// hardware-isolated (mapped to whole flash channels, the strongest
// isolation) or software-isolated (mapped to chips that share channels,
// isolated by token-bucket rate limiting). Software-isolated vSSDs that
// span the same channels form a channel group (§3.5.2) whose members
// garbage-collect together and lend each other free blocks.
package vssd

import (
	"errors"
	"fmt"

	"rackblox/internal/sim"
	"rackblox/internal/ssd"
)

// Isolation is the vSSD isolation class.
type Isolation int

const (
	// Hardware isolation maps the vSSD to exclusive flash channels.
	Hardware Isolation = iota
	// Software isolation maps the vSSD to chips on shared channels.
	Software
)

func (i Isolation) String() string {
	switch i {
	case Hardware:
		return "hardware"
	case Software:
		return "software"
	default:
		return fmt.Sprintf("Isolation(%d)", int(i))
	}
}

// VSSD is one virtual SSD instance.
type VSSD struct {
	ID  uint32
	Iso Isolation
	FTL *ssd.FTL

	// limiter rate-limits software-isolated instances; nil for hardware.
	limiter *TokenBucket
	// group is the channel group of a software-isolated vSSD, nil for
	// hardware-isolated ones.
	group *ChannelGroup

	// inGC tracks whether a GC burst is in progress and when it ends.
	inGC     bool
	gcEndsAt sim.Time
}

// NewHardwareIsolated builds a vSSD over whole channels of a device.
func NewHardwareIsolated(dev *ssd.Device, id uint32, channels []int, utilization float64) (*VSSD, error) {
	if len(channels) == 0 {
		return nil, errors.New("vssd: hardware-isolated vSSD needs channels")
	}
	var chips []ssd.ChipRef
	for _, ch := range channels {
		if ch < 0 || ch >= dev.Geometry().Channels {
			return nil, fmt.Errorf("vssd: channel %d out of range", ch)
		}
		chips = append(chips, dev.ChannelChips(ch)...)
	}
	ftl, err := ssd.NewFTL(dev, chips, utilization)
	if err != nil {
		return nil, err
	}
	return &VSSD{ID: id, Iso: Hardware, FTL: ftl}, nil
}

// NewSoftwareIsolated builds a vSSD over individual chips, throttled to
// iopsLimit operations per second (token-bucket software isolation).
func NewSoftwareIsolated(dev *ssd.Device, id uint32, chips []ssd.ChipRef, utilization float64, iopsLimit float64) (*VSSD, error) {
	if len(chips) == 0 {
		return nil, errors.New("vssd: software-isolated vSSD needs chips")
	}
	ftl, err := ssd.NewFTL(dev, chips, utilization)
	if err != nil {
		return nil, err
	}
	return &VSSD{
		ID: id, Iso: Software, FTL: ftl,
		limiter: NewTokenBucket(iopsLimit, iopsLimit/10+1),
	}, nil
}

// Channels returns the flash channels the vSSD's chips live on.
func (v *VSSD) Channels() []int { return v.FTL.Channels() }

// Admit applies software-isolation rate limiting: it returns the time at
// which the request may be dispatched. Hardware-isolated vSSDs admit
// immediately.
func (v *VSSD) Admit(now sim.Time) sim.Time {
	if v.limiter == nil {
		return now
	}
	return v.limiter.Admit(now)
}

// InGC reports whether a GC burst is running at time now.
func (v *VSSD) InGC(now sim.Time) bool {
	if v.inGC && now >= v.gcEndsAt {
		v.inGC = false
	}
	return v.inGC
}

// GCEndsAt returns the end of the current burst (zero when idle).
func (v *VSSD) GCEndsAt() sim.Time {
	if v.inGC {
		return v.gcEndsAt
	}
	return 0
}

// StartGC marks a burst running until end.
func (v *VSSD) StartGC(end sim.Time) {
	v.inGC = true
	if end > v.gcEndsAt {
		v.gcEndsAt = end
	}
}

// FinishGC clears the burst state.
func (v *VSSD) FinishGC() { v.inGC = false; v.gcEndsAt = 0 }

// Group returns the channel group, nil for hardware-isolated vSSDs.
func (v *VSSD) Group() *ChannelGroup { return v.group }

// TokenBucket rate-limits operations per second with a burst allowance.
// Unlike the switch qdisc (per-flow), this bucket guards one vSSD.
type TokenBucket struct {
	rate   float64
	burst  float64
	tokens float64
	last   sim.Time
}

// NewTokenBucket builds a limiter; rate <= 0 disables limiting.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}
}

// Admit returns the earliest time a request arriving at now may proceed.
func (t *TokenBucket) Admit(now sim.Time) sim.Time {
	if t.rate <= 0 {
		return now
	}
	t.tokens += float64(float64(now-t.last) / 1e9 * t.rate)
	if t.tokens > t.burst {
		t.tokens = t.burst
	}
	t.last = now
	if t.tokens >= 1 {
		t.tokens--
		return now
	}
	wait := sim.Time((1 - t.tokens) / t.rate * 1e9)
	t.tokens = 0
	t.last = now + wait
	return now + wait
}

// ChannelGroup is a set of software-isolated vSSDs spanning the same
// channels (§3.5.2). All members perform GC together; members short on
// free blocks borrow from collocated members in fixed-size groups.
type ChannelGroup struct {
	Members []*VSSD
	// BorrowQuantum is how many blocks move per borrow operation (the
	// paper borrows in 1 GB groups).
	BorrowQuantum int
	// loans tracks lender -> borrower -> blocks, so returns go home.
	loans map[*VSSD]map[*VSSD][]ssd.BlockRef
	// burst is what GroupCollect returns, its buffer reused.
	burst ssd.BurstResult
}

// NewChannelGroup groups software-isolated vSSDs. All members must be
// software-isolated and span the identical channel set.
func NewChannelGroup(borrowQuantum int, members ...*VSSD) (*ChannelGroup, error) {
	if len(members) == 0 {
		return nil, errors.New("vssd: empty channel group")
	}
	if borrowQuantum < 1 {
		borrowQuantum = 4
	}
	span := channelKey(members[0].Channels())
	for _, m := range members {
		if m.Iso != Software {
			return nil, fmt.Errorf("vssd: vSSD %d is not software-isolated", m.ID)
		}
		if channelKey(m.Channels()) != span {
			return nil, fmt.Errorf("vssd: vSSD %d spans different channels", m.ID)
		}
	}
	g := &ChannelGroup{
		Members:       members,
		BorrowQuantum: borrowQuantum,
		loans:         make(map[*VSSD]map[*VSSD][]ssd.BlockRef),
	}
	for _, m := range members {
		m.group = g
	}
	return g, nil
}

func channelKey(chs []int) string {
	key := ""
	for _, c := range chs {
		key += fmt.Sprintf("%d,", c)
	}
	return key
}

// FreeRatio is the group-wide free block ratio; group GC triggers on it
// rather than on any single member (§3.5.2: "delay GC until the channel
// group's free block ratio falls below the gc_threshold").
func (g *ChannelGroup) FreeRatio() float64 {
	free, total := 0, 0
	for _, m := range g.Members {
		free += m.FTL.FreeBlocks()
		total += m.FTL.TotalBlocks()
	}
	if total == 0 {
		return 0
	}
	return float64(free) / float64(total)
}

// Rebalance lends blocks from the freest member to any member that has
// exhausted its own free blocks, in BorrowQuantum units. Returns how many
// blocks moved.
func (g *ChannelGroup) Rebalance() int {
	moved := 0
	for _, borrower := range g.Members {
		// Keep a small margin beyond the GC reserve.
		if borrower.FTL.FreeBlocks() > 2 {
			continue
		}
		lender := g.freestMember(borrower)
		if lender == nil {
			continue
		}
		blocks := lender.FTL.Borrow(g.BorrowQuantum)
		if len(blocks) == 0 {
			continue
		}
		borrower.FTL.AcceptBorrowed(blocks)
		if g.loans[lender] == nil {
			g.loans[lender] = make(map[*VSSD][]ssd.BlockRef)
		}
		g.loans[lender][borrower] = append(g.loans[lender][borrower], blocks...)
		moved += len(blocks)
	}
	return moved
}

func (g *ChannelGroup) freestMember(excluding *VSSD) *VSSD {
	var best *VSSD
	bestFree := 0
	for _, m := range g.Members {
		if m == excluding {
			continue
		}
		// A lender must keep enough free space to not immediately need
		// borrowing itself.
		if f := m.FTL.FreeBlocks(); f > bestFree && f > g.BorrowQuantum+2 {
			bestFree = f
			best = m
		}
	}
	return best
}

// GroupCollect runs GC for every member simultaneously ("if one vSSD must
// perform GC ... then all vSSDs should perform GC to reduce GC
// frequency"), vacates and returns borrowed blocks, and reports the
// combined per-channel busy time. maxBlocks caps each member's burst
// (0 = unlimited). The result is valid until g's next GroupCollect.
func (g *ChannelGroup) GroupCollect(target float64, maxBlocks int) ssd.BurstResult {
	out := &g.burst
	out.Reset(g.Members[0].FTL.Device().Geometry().Channels)
	for _, m := range g.Members {
		res := m.FTL.CollectBurst(target, maxBlocks)
		out.Blocks += res.Blocks
		out.Moved += res.Moved
		out.Duration += res.Duration
		for ch, d := range res.PerChannel {
			if d != ssd.Untouched {
				out.Charge(ch, d)
			}
		}
	}
	// Return loans: borrowers vacate, lenders take the blocks back.
	// Member order (not map order) keeps runs deterministic.
	for _, lender := range g.Members {
		byBorrower := g.loans[lender]
		if byBorrower == nil {
			continue
		}
		for _, borrower := range g.Members {
			if _, ok := byBorrower[borrower]; !ok {
				continue
			}
			returned, dur := borrower.FTL.VacateBorrowed()
			if len(returned) > 0 {
				lender.FTL.GiveBack(returned)
				out.Duration += dur
				// Vacate work happens on the borrower's channels; spread
				// it over the group's (shared) channel set.
				chs := borrower.Channels()
				if len(chs) > 0 {
					per := dur / sim.Time(len(chs))
					for _, ch := range chs {
						out.Charge(ch, per)
					}
				}
			}
			delete(byBorrower, borrower)
		}
	}
	return *out
}

// OutstandingLoans counts blocks currently on loan (for tests).
func (g *ChannelGroup) OutstandingLoans() int {
	n := 0
	for _, byBorrower := range g.loans {
		for _, blocks := range byBorrower {
			n += len(blocks)
		}
	}
	return n
}
