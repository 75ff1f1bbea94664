package ec

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestPlan pins the order rules the simulator's degraded reads and
// repair batches depend on, one case per rule. The layout is RS(4,2)
// spread over three racks (members 0–5 on racks 0, 1, 2, 0, 1, 2) and,
// for LRC, the local parity holders 6, 7 and 8 of racks 0, 1 and 2.
func TestPlan(t *testing.T) {
	spec := Spec{K: 4, M: 2}
	cases := []struct {
		name                   string
		lrc                    bool
		down, rebuilding, busy []int
		want, coord            int
		sources, ships         []int
		local, decodes         bool
	}{
		{name: "coordinator first, then k-1 others",
			down: []int{0}, want: 0, coord: 3,
			sources: []int{3, 1, 2, 4}, ships: []int{1, 2, 4}, decodes: true},
		{name: "rebuilding coordinator contributes no chunk",
			down: []int{0}, rebuilding: []int{3}, want: 0, coord: 3,
			sources: []int{1, 2, 4, 5}, ships: []int{1, 2, 4, 5}, decodes: true},
		{name: "idle near, then idle far, then busy",
			down: []int{2, 5}, busy: []int{1}, want: 2, coord: 0,
			sources: []int{0, 3, 4, 1}, ships: []int{4, 1}, decodes: true},
		{name: "cap at k",
			busy: []int{0}, want: 0, coord: 1,
			sources: []int{1, 4, 2, 3}, ships: []int{2, 3}, decodes: true},
		{name: "busy wanted member is read",
			down: []int{2, 5}, busy: []int{0}, want: 0, coord: 1,
			sources: []int{1, 4, 3, 0}, ships: []int{3, 0}, decodes: true},
		{name: "fewer than k readable",
			down: []int{0, 2, 3}, want: 0, coord: 1,
			sources: []int{1, 4, 5}, ships: []int{5}},
		{name: "local plan takes precedence", lrc: true,
			down: []int{0}, want: 0, coord: 3,
			sources: []int{3, 6}, local: true, decodes: true},
		{name: "local plan of a catch-up repair", lrc: true,
			rebuilding: []int{0}, want: 0, coord: 0,
			sources: []int{3, 6}, local: true, decodes: true},
		{name: "local plan for a local parity holder", lrc: true,
			down: []int{6}, want: 6, coord: 0,
			sources: []int{0, 3}, local: true, decodes: true},
		{name: "unreadable rack-mate falls back to one shipper per rack", lrc: true,
			down: []int{0}, rebuilding: []int{6}, want: 0, coord: 3,
			sources: []int{3, 1, 2, 4}, ships: []int{1, 2}, decodes: true},
		{name: "rebuilding coordinator falls back", lrc: true,
			down: []int{0}, rebuilding: []int{3}, want: 0, coord: 3,
			sources: []int{1, 2, 4, 5}, ships: []int{1, 2}, decodes: true},
		{name: "remote want gets a global plan", lrc: true,
			down: []int{1}, want: 1, coord: 0,
			sources: []int{0, 3, 2, 4}, ships: []int{2, 4}, decodes: true},
	}
	for _, tc := range cases {
		members := planMembers(tc.lrc, tc.down, tc.rebuilding, tc.busy)
		var p Plan
		spec.Plan(&p, members, tc.want, tc.coord)
		var got, ships []int
		for _, s := range p.Sources {
			got = append(got, s.Member)
			if s.Ships {
				ships = append(ships, s.Member)
			}
		}
		if !slices.Equal(got, tc.sources) || !slices.Equal(ships, tc.ships) ||
			p.Local != tc.local || p.Decodes != tc.decodes {
			t.Errorf("%s: sources %v ships %v local %v decodes %v, want %v %v %v %v",
				tc.name, got, ships, p.Local, p.Decodes, tc.sources, tc.ships, tc.local, tc.decodes)
		}
	}

	adopters := []struct {
		name       string
		lrc        bool
		down       []int
		rebuilding []int
		lost       int
		want       int
	}{
		{name: "next member", lost: 0, want: 1},
		{name: "skips down members", down: []int{0, 1}, lost: 0, want: 2},
		{name: "wraps", down: []int{5}, lost: 5, want: 0},
		{name: "ignores rebuilding", rebuilding: []int{1}, lost: 0, want: 1},
		{name: "every member down", down: []int{0, 1, 2, 3, 4, 5}, lost: 2, want: -1},
		{name: "LRC prefers the own rack", lrc: true, down: []int{0}, lost: 0, want: 3},
		{name: "LRC own-rack local parity", lrc: true, down: []int{0, 3}, lost: 0, want: 6},
		{name: "LRC rack gone", lrc: true, down: []int{0, 3, 6}, lost: 0, want: 1},
		{name: "LRC every member down", lrc: true,
			down: []int{0, 1, 2, 3, 4, 5, 6, 7, 8}, lost: 4, want: -1},
	}
	for _, tc := range adopters {
		members := planMembers(tc.lrc, tc.down, tc.rebuilding, nil)
		if got := spec.Adopter(members, tc.lost); got != tc.want {
			t.Errorf("Adopter %s: %d, want %d", tc.name, got, tc.want)
		}
	}
}

// planMembers builds TestPlan's member vector with the listed states.
func planMembers(lrc bool, down, rebuilding, busy []int) []Member {
	racks := []int{0, 1, 2, 0, 1, 2}
	if lrc {
		racks = append(racks, 0, 1, 2)
	}
	members := make([]Member, len(racks))
	for i, r := range racks {
		members[i] = Member{Rack: r, Down: slices.Contains(down, i),
			Rebuilding: slices.Contains(rebuilding, i), Busy: slices.Contains(busy, i)}
	}
	return members
}

// FuzzRepairPlan's per-member input byte: the rack in the low two bits
// (global members only), then the state bits.
const (
	fuzzRack       = 3
	fuzzDown       = 1 << 2
	fuzzRebuilding = 1 << 3
	fuzzBusy       = 1 << 4
)

// FuzzRepairPlan decodes the wanted chunk with the codec from exactly
// the sources Spec.Plan picks, over random specs (RS, and LRC with one
// local parity holder per occupied rack), rack layouts, stripes and
// member states. An unreadable member's chunk is garbage here, so a plan
// that reads one fails. A global plan must decode through Reconstruct
// with every other shard nil, and under LRC also as the XOR of one
// AggregateChunk per rack; a local plan as the XORParity of its
// sources. Shipments must number the remote sources (RS) or remote racks
// (LRC), and a plan may fail to decode only when fewer than k global
// members are readable.
func FuzzRepairPlan(f *testing.F) {
	// The figra and ec-repair geometries: RS(4,2) and LRC(4,2) spread
	// over three racks of six servers, for three groups' rotations.
	placer := Placer{Servers: 6, Racks: 3, Width: 6, Mode: PlaceSpread, MaxPerRack: 2}
	for group := 0; group < 3; group++ {
		var racks []byte
		for _, srv := range placer.Place(group) {
			racks = append(racks, byte(placer.RackOf(srv)))
		}
		for _, lrc := range []bool{false, true} {
			members := func(states map[int]byte) []byte {
				out := append(make([]byte, 0, 9), racks...)
				if lrc {
					out = append(out, 0, 0, 0)
				}
				for i, b := range states {
					out[i] |= b
				}
				return out
			}
			seed := int64(group)
			// A server crash: a read steered to the next member.
			f.Add(seed, uint8(3), uint8(1), uint8(2), lrc, uint8(0), uint8(1), uint16(group),
				members(map[int]byte{0: fuzzDown}))
			// A catch-up repair onto the revived, blank holder.
			f.Add(seed, uint8(3), uint8(1), uint8(2), lrc, uint8(2), uint8(2), uint16(7),
				members(map[int]byte{2: fuzzRebuilding}))
			// A read steered from a collecting holder while another
			// member collects and one is down.
			f.Add(seed, uint8(3), uint8(1), uint8(2), lrc, uint8(1), uint8(4), uint16(group+1),
				members(map[int]byte{1: fuzzBusy, 3: fuzzBusy, 5: fuzzDown}))
			// A whole-rack crash: every member of the wanted one's rack.
			rack := map[int]byte{}
			for i, r := range racks {
				if r == racks[0] {
					rack[i] = fuzzDown | fuzzRebuilding
				}
			}
			if lrc {
				rack[6+int(racks[0])] = fuzzDown
			}
			f.Add(seed, uint8(3), uint8(1), uint8(2), lrc, uint8(0), uint8(3), uint16(group),
				members(rack))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, kRaw, mRaw, racksRaw uint8, lrc bool,
		wantRaw, coordRaw uint8, stripe uint16, input []byte) {
		spec := Spec{K: int(kRaw)%8 + 1, M: int(mRaw)%4 + 1}
		k, width := spec.K, spec.Width()
		racks := int(racksRaw)%4 + 1
		members := make([]Member, width)
		occupied := make([]bool, racks)
		for i := range members {
			if i < len(input) {
				members[i].Rack = int(input[i]&fuzzRack) % racks
			}
			occupied[members[i].Rack] = true
		}
		if lrc {
			for r, used := range occupied {
				if used {
					members = append(members, Member{Rack: r})
				}
			}
		}
		n := len(members)
		for i := range members {
			if i < len(input) {
				members[i].Down = input[i]&fuzzDown != 0
				members[i].Rebuilding = input[i]&fuzzRebuilding != 0
				members[i].Busy = input[i]&fuzzBusy != 0
			}
		}
		want, coord := int(wantRaw)%n, int(coordRaw)%n

		// The adopter is the first member after want, wrapping, that is
		// not down; under LRC one in want's rack when there is one.
		a := spec.Adopter(members, want)
		eligible := func(i int, ownRack bool) bool {
			return i != want && !members[i].Down && (!ownRack || members[i].Rack == members[want].Rack)
		}
		ownRack, anyUp := false, false
		for i := range members {
			ownRack = ownRack || (lrc && eligible(i, true))
			anyUp = anyUp || eligible(i, false)
		}
		if (a >= 0) != anyUp || (a >= 0 && !eligible(a, ownRack)) {
			t.Fatalf("%s members %+v: Adopter(%d) = %d", spec, members, want, a)
		}
		for i := (want + 1) % n; a >= 0 && i != a; i = (i + 1) % n {
			if eligible(i, ownRack) {
				t.Fatalf("%s members %+v: Adopter(%d) = %d passes over %d", spec, members, want, a, i)
			}
		}

		// Encode one stripe and give every member its chunk: a global
		// member the chunk at its rotated position, a local parity holder
		// the XOR of its rack's global chunks. Unreadable members hold
		// garbage.
		codec, err := NewCodec(spec)
		if err != nil {
			t.Fatal(err)
		}
		const size = 16
		rng := rand.New(rand.NewSource(seed))
		shards := make([][]byte, width)
		for i := 0; i < k; i++ {
			shards[i] = make([]byte, size)
			rng.Read(shards[i])
		}
		parity, err := codec.Encode(shards[:k])
		if err != nil {
			t.Fatal(err)
		}
		copy(shards[k:], parity)
		pos := make([]int, width) // member -> stripe position
		for p, h := range (Striper{Spec: spec}).Holders(int(stripe)) {
			pos[h] = p
		}
		rackGlobals := func(rack int) []int {
			var out []int
			for i, m := range members[:width] {
				if m.Rack == rack {
					out = append(out, i)
				}
			}
			return out
		}
		truth := make([][]byte, n)
		for i := range members {
			if i < width {
				truth[i] = shards[pos[i]]
				continue
			}
			var chunks [][]byte
			for _, g := range rackGlobals(members[i].Rack) {
				chunks = append(chunks, shards[pos[g]])
			}
			if truth[i], err = XORParity(chunks); err != nil {
				t.Fatal(err)
			}
		}
		held := make([][]byte, n)
		readableGlobal := 0
		for i, m := range members {
			held[i] = truth[i]
			if !m.Readable() {
				held[i] = make([]byte, size)
				rng.Read(held[i])
			} else if i < width {
				readableGlobal++
			}
		}

		var p Plan
		spec.Plan(&p, members, want, coord)
		describe := func() string {
			return fmtPlan(spec, lrc, members, want, coord, p)
		}
		near := members[coord].Rack
		remote, remoteRacks := 0, map[int]bool{}
		shipments := 0
		for j, s := range p.Sources {
			m := members[s.Member]
			if !m.Readable() {
				t.Fatalf("%s: source %d is unreadable", describe(), s.Member)
			}
			for _, prev := range p.Sources[:j] {
				if prev.Member == s.Member {
					t.Fatalf("%s: source %d listed twice", describe(), s.Member)
				}
			}
			if m.Rack != near {
				remote++
				remoteRacks[m.Rack] = true
			}
			if s.Ships {
				shipments++
			}
		}
		wantShipments := remote
		if lrc {
			wantShipments = len(remoteRacks)
		}
		if p.Local {
			wantShipments = 0
		}
		if shipments != wantShipments {
			t.Fatalf("%s: %d shipments, want %d", describe(), shipments, wantShipments)
		}
		if p.Decodes != (p.Local || len(p.Sources) == k) {
			t.Fatalf("%s: Decodes %v with %d sources", describe(), p.Decodes, len(p.Sources))
		}
		if !p.Decodes {
			if readableGlobal >= k {
				t.Fatalf("%s: no decode with %d readable global members", describe(), readableGlobal)
			}
			readable := make([][]byte, width)
			for i, m := range members[:width] {
				if m.Readable() {
					readable[pos[i]] = held[i]
				}
			}
			if err := codec.Reconstruct(readable); !errors.Is(err, ErrStripeUnrecoverable) {
				t.Fatalf("%s: codec decodes what the plan gave up on: %v", describe(), err)
			}
			return
		}

		var got []byte
		if p.Local {
			var chunks [][]byte
			for _, s := range p.Sources {
				if members[s.Member].Rack != members[want].Rack {
					t.Fatalf("%s: local source %d outside the wanted rack", describe(), s.Member)
				}
				chunks = append(chunks, held[s.Member])
			}
			if got, err = XORParity(chunks); err != nil {
				t.Fatalf("%s: %v", describe(), err)
			}
		} else {
			// The positions whose chunks make up the wanted one: its own,
			// or under LRC every global chunk of a local parity's rack.
			targets := []int{want}
			if want >= width {
				targets = rackGlobals(members[want].Rack)
			}
			decoded := make([][]byte, width)
			for _, s := range p.Sources {
				if s.Member >= width {
					t.Fatalf("%s: global plan reads local parity %d", describe(), s.Member)
				}
				decoded[pos[s.Member]] = held[s.Member]
			}
			if err := codec.Reconstruct(decoded); err != nil {
				t.Fatalf("%s: Reconstruct: %v", describe(), err)
			}
			got = make([]byte, size)
			for _, g := range targets {
				xorInto(got, decoded[pos[g]])
			}
			if lrc {
				agg := aggregateDecode(t, codec, members, p, held, pos, targets, size)
				if !bytes.Equal(agg, got) {
					t.Fatalf("%s: per-rack aggregates disagree with Reconstruct", describe())
				}
			}
		}
		if !bytes.Equal(got, truth[want]) {
			t.Fatalf("%s: decoded the wrong chunk", describe())
		}
	})
}

// aggregateDecode rebuilds the sum of the target positions' chunks the
// way LRC's global plan ships it: each rack folds its sources into one
// AggregateChunk, and the aggregates XOR together.
func aggregateDecode(t *testing.T, codec *Codec, members []Member, p Plan, held [][]byte,
	pos, targets []int, size int) []byte {
	t.Helper()
	rows := make([]int, len(p.Sources))
	for j, s := range p.Sources {
		rows[j] = pos[s.Member]
	}
	coeffs := make([]byte, len(rows))
	for _, g := range targets {
		if j := slices.Index(rows, pos[g]); j >= 0 {
			coeffs[j] ^= 1 // a source already holds this chunk
			continue
		}
		c, err := codec.RepairCoefficients(pos[g], rows)
		if err != nil {
			t.Fatalf("RepairCoefficients(%d, %v): %v", pos[g], rows, err)
		}
		for j := range coeffs {
			coeffs[j] ^= c[j]
		}
	}
	byRack := map[int][]int{} // rack -> indices into p.Sources
	for j, s := range p.Sources {
		r := members[s.Member].Rack
		byRack[r] = append(byRack[r], j)
	}
	out := make([]byte, size)
	for _, idxs := range byRack {
		c := make([]byte, len(idxs))
		chunks := make([][]byte, len(idxs))
		for i, j := range idxs {
			c[i], chunks[i] = coeffs[j], held[p.Sources[j].Member]
		}
		agg, err := AggregateChunk(c, chunks)
		if err != nil {
			t.Fatal(err)
		}
		xorInto(out, agg)
	}
	return out
}

// xorInto XORs src into dst.
func xorInto(dst, src []byte) {
	for b, v := range src {
		dst[b] ^= v
	}
}

// fmtPlan names a fuzz case and its plan for a failure message.
func fmtPlan(spec Spec, lrc bool, members []Member, want, coord int, p Plan) string {
	name := spec.String()
	if lrc {
		name = spec.LocalString()
	}
	return fmt.Sprintf("%s members %+v want %d coord %d: plan %+v", name, members, want, coord, p)
}
