package ec

import "fmt"

// Striper maps a volume's logical pages onto stripes of k data chunks and
// assigns every chunk of a stripe to one of the k+m chunk holders. Parity
// rotates with the stripe index (RAID-5 style) so no holder becomes a
// dedicated parity device: each holder stores exactly one chunk of every
// stripe, at local page number == stripe index.
type Striper struct {
	Spec Spec
}

// Stripe returns the stripe index and the data-chunk position within the
// stripe for a logical page.
func (s Striper) Stripe(lpn int) (stripe, pos int) {
	return lpn / s.Spec.K, lpn % s.Spec.K
}

// LPN is the inverse of Stripe.
func (s Striper) LPN(stripe, pos int) int { return stripe*s.Spec.K + pos }

// DataHolder returns the holder index (into the stripe group's k+m
// members) storing data chunk pos of a stripe.
func (s Striper) DataHolder(stripe, pos int) int {
	return (stripe + pos) % s.Spec.Width()
}

// ParityHolders appends the holder indices storing a stripe's m parity
// chunks, in parity order, to dst and returns the extended slice, so a
// caller that reuses its buffer allocates nothing.
func (s Striper) ParityHolders(dst []int, stripe int) []int {
	for j := 0; j < s.Spec.M; j++ {
		dst = append(dst, (stripe+s.Spec.K+j)%s.Spec.Width())
	}
	return dst
}

// Holders returns every holder index of a stripe in chunk order: the k
// data chunks first, then the m parity chunks. The rotation keeps all
// k+m distinct for any stripe.
func (s Striper) Holders(stripe int) []int {
	out := make([]int, 0, s.Spec.Width())
	for p := 0; p < s.Spec.K; p++ {
		out = append(out, s.DataHolder(stripe, p))
	}
	return s.ParityHolders(out, stripe)
}

// PlacementMode selects how a stripe group's chunk holders map onto the
// cluster's rack fault domains.
type PlacementMode int

const (
	// PlaceCompact confines each group to a single rack (distinct servers
	// within it) — the original rack-aware placement. A whole-rack failure
	// loses every chunk of the groups homed there.
	PlaceCompact PlacementMode = iota
	// PlaceSpread distributes each group's chunks round-robin across rack
	// fault domains, never more than MaxPerRack chunks per rack, so losing
	// an entire rack (or its ToR) still leaves >= k chunks of every stripe.
	PlaceSpread
)

func (m PlacementMode) String() string {
	if m == PlaceSpread {
		return "spread"
	}
	return "compact"
}

// Placer assigns the k+m chunk holders of each stripe group to distinct
// storage servers, optionally across multiple rack fault domains. Groups
// rotate their starting server so load spreads; within one group no two
// holders ever share a server — the invariant that makes any
// single-server failure cost at most one chunk per stripe. Under
// PlaceSpread no rack holds more than MaxPerRack chunks of a group, the
// invariant that keeps a whole-rack failure recoverable.
type Placer struct {
	// Servers is the storage-server count per rack (the total count when
	// Racks <= 1).
	Servers int
	// Racks is the number of rack fault domains; 0 or 1 means one rack.
	Racks int
	// Width is the chunk count per stripe, k+m.
	Width int
	// Mode selects compact (single-rack) or spread (multi-rack) placement.
	Mode PlacementMode
	// MaxPerRack caps chunks per rack under PlaceSpread; typically m.
	MaxPerRack int
}

// racks normalizes the rack count.
func (p Placer) racks() int {
	if p.Racks < 1 {
		return 1
	}
	return p.Racks
}

// TotalServers is the cluster-wide server count.
func (p Placer) TotalServers() int { return p.racks() * p.Servers }

// RackOf maps a global server index to its rack fault domain.
func (p Placer) RackOf(server int) int { return server / p.Servers }

// Place returns the global server index hosting each of a group's Width
// chunk holders. All returned servers are distinct; under PlaceSpread no
// rack receives more than MaxPerRack of them (validated by
// Spec.ValidateCluster). Compact placement requires Width <= Servers —
// no in-rack rotation can fit more chunks than servers without a
// collision — so Place panics on that geometry instead of silently
// wrapping two chunks onto one server; Spec.ValidateCluster rejects it
// with an error for config-path callers.
func (p Placer) Place(group int) []int {
	if p.Mode == PlaceSpread && p.racks() > 1 {
		return p.placeSpread(group)
	}
	if p.Width > p.Servers {
		panic(fmt.Sprintf(
			"ec: compact placement of %d chunks over %d servers per rack would co-locate two chunks of one stripe; validate the geometry with Spec.ValidateCluster",
			p.Width, p.Servers))
	}
	out := make([]int, p.Width)
	if p.racks() == 1 {
		start := (group * p.Width) % p.Servers
		for i := 0; i < p.Width; i++ {
			out[i] = (start + i) % p.Servers
		}
		return out
	}
	// Compact on a multi-rack cluster: the whole group lives in one rack,
	// groups rotating over racks and over in-rack starting servers.
	rack := group % p.racks()
	start := ((group / p.racks()) * p.Width) % p.Servers
	for i := 0; i < p.Width; i++ {
		out[i] = rack*p.Servers + (start+i)%p.Servers
	}
	return out
}

// placeSpread assigns chunk i to rack (group+i) mod Racks, skipping
// racks already at the MaxPerRack cap or out of servers (with the
// validated racks >= ceil(width/cap) the round-robin never actually
// hits either limit; the skip enforces the cap for direct Placer users
// too). Within each rack, slots fill sequentially from a group-rotated
// offset, so holders stay on distinct servers. If every rack is capped
// the remaining chunks overflow round-robin onto racks with free
// servers: a full placement with a violated cap beats a partial one.
func (p Placer) placeSpread(group int) []int {
	out := make([]int, p.Width)
	slot := make([]int, p.racks())
	rot := group % p.Servers
	place := func(i, rack int) {
		out[i] = rack*p.Servers + (rot+slot[rack])%p.Servers
		slot[rack]++
	}
	for i := 0; i < p.Width; i++ {
		rack := (group + i) % p.racks()
		placed := false
		for d := 0; d < p.racks(); d++ {
			c := (rack + d) % p.racks()
			if slot[c] >= p.Servers || (p.MaxPerRack > 0 && slot[c] >= p.MaxPerRack) {
				continue
			}
			place(i, c)
			placed = true
			break
		}
		if placed {
			continue
		}
		for d := 0; d < p.racks(); d++ { // all capped: ignore MaxPerRack
			c := (rack + d) % p.racks()
			if slot[c] < p.Servers {
				place(i, c)
				break
			}
		}
	}
	return out
}
