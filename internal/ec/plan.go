package ec

// Member is one stripe-group member's state as a plan sees it. A group's
// members are its k+m global chunk holders in placement order, followed
// under the LRC family by one local parity holder per occupied rack, in
// rack order; each holds one chunk of every stripe.
type Member struct {
	Rack int
	// Down marks a member that cannot be reached.
	Down bool
	// Rebuilding marks a member with a rebuild outstanding: its chunks
	// are blank or stale.
	Rebuilding bool
	// Busy marks a collecting member, which a plan reads last.
	Busy bool
}

// Readable reports whether the member's chunk can be fetched.
func (m Member) Readable() bool { return !m.Down && !m.Rebuilding }

// Source is one chunk a plan fetches; Ships marks a chunk that crosses
// the spine to the coordinator.
type Source struct {
	Member int
	Ships  bool
}

// Plan is the set of chunks a coordinator fetches to rebuild one
// member's chunk.
type Plan struct {
	Sources []Source
	// Local reports the LRC family's rack-local plan: the wanted chunk is
	// the XOR of every other chunk of its rack, local parity included.
	Local bool
	// Decodes reports whether the sources rebuild the wanted chunk: a
	// local plan always does, a global plan when it holds k sources.
	Decodes bool
}

// Plan fills p with the chunks member coord fetches to rebuild member
// want's chunk, reusing p.Sources' array; more than Width() members is
// the LRC family.
//
// The local plan applies when want and coord share a rack whose every
// other member is readable: coord (unless it is want), then the rack's
// other members in member order. Otherwise the global plan takes coord's
// own chunk if coord is a readable global member, then readable global
// members in three classes, each in member order: idle in coord's rack,
// idle elsewhere, busy. It stops at k sources; want is eligible, since a
// busy member can still be read.
//
// A source ships when it is in another rack than coord. Under the LRC
// family a remote rack folds its sources into one aggregate
// (AggregateChunk), so only its first source ships.
func (s Spec) Plan(p *Plan, members []Member, want, coord int) {
	lrc, near := len(members) > s.Width(), members[coord].Rack
	p.Sources, p.Local = p.Sources[:0], lrc && members[want].Rack == near
	for i, m := range members {
		if i != want && m.Rack == near && !m.Readable() {
			p.Local = false
		}
	}
	if p.Local {
		if coord != want {
			p.Sources = append(p.Sources, Source{Member: coord})
		}
		for i, m := range members {
			if i != want && i != coord && m.Rack == near {
				p.Sources = append(p.Sources, Source{Member: i})
			}
		}
	} else {
		global := members[:s.Width()]
		if coord < len(global) && global[coord].Readable() {
			p.Sources = append(p.Sources, Source{Member: coord})
		}
		for class := 0; class < 3; class++ { // idle near, idle far, busy
			for i, m := range global {
				c := 0
				if m.Busy {
					c = 2
				} else if m.Rack != near {
					c = 1
				}
				if c == class && i != coord && m.Readable() && len(p.Sources) < s.K {
					p.Sources = append(p.Sources, Source{Member: i})
				}
			}
		}
	}
	p.Decodes = p.Local || len(p.Sources) == s.K
	for j, src := range p.Sources {
		rack := members[src.Member].Rack
		p.Sources[j].Ships = rack != near
		for _, prev := range p.Sources[:j] {
			if lrc && members[prev.Member].Rack == rack {
				p.Sources[j].Ships = false
			}
		}
	}
}

// Adopter returns the member that takes over lost's traffic and rebuilt
// chunks: the next member after lost in member order, wrapping, that is
// not down, preferring under the LRC family one in lost's own rack,
// whose rebuild the local plan keeps off the spine. It returns -1 when
// every other member is down.
func (s Spec) Adopter(members []Member, lost int) int {
	n, first := len(members), -1
	for d := 1; d < n; d++ {
		i := (lost + d) % n
		if members[i].Down {
			continue
		}
		if n <= s.Width() || members[i].Rack == members[lost].Rack {
			return i
		}
		if first < 0 {
			first = i
		}
	}
	return first
}
