package replication

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// timestampOf returns the timestamp n holds for lpn.
func timestampOf(n *Node, lpn uint32) Timestamp { return n.key(lpn).ts() }

func TestStateAndMsgStrings(t *testing.T) {
	if Valid.String() != "valid" || Invalid.String() != "invalid" || Writing.String() != "writing" {
		t.Fatal("state strings")
	}
	if State(9).String() == "" {
		t.Fatal("unknown state string empty")
	}
	if MsgInv.String() != "INV" || MsgAck.String() != "ACK" || MsgVal.String() != "VAL" {
		t.Fatal("msg strings")
	}
	if MsgType(9).String() == "" {
		t.Fatal("unknown msg string empty")
	}
}

func TestTimestampOrder(t *testing.T) {
	a := Timestamp{Version: 1, NodeID: 0}
	b := Timestamp{Version: 1, NodeID: 1}
	c := Timestamp{Version: 2, NodeID: 0}
	if !a.Less(b) || !b.Less(c) || !a.Less(c) {
		t.Fatal("timestamp ordering broken")
	}
	if a.Less(a) {
		t.Fatal("timestamp not irreflexive")
	}
}

func TestFreshKeysReadableEverywhere(t *testing.T) {
	g := NewGroup(3)
	for _, n := range g.Nodes {
		if !n.CanRead(42) {
			t.Fatalf("node %d cannot read unwritten key", n.ID())
		}
	}
}

func TestWriteCommitsAndRevalidates(t *testing.T) {
	g := NewGroup(3)
	g.Write(0, 7)
	readable := g.ReadableReplicas(7)
	if len(readable) != 3 {
		t.Fatalf("readable after commit = %v, want all 3", readable)
	}
}

func TestInvalidationBlocksReadsMidWrite(t *testing.T) {
	g := NewGroup(2)
	g.Nodes[0].Write(5, nil)
	// Deliver only the INV, not the ACK back.
	if len(g.queue) != 1 || g.queue[0].Type != MsgInv {
		t.Fatalf("queue = %+v, want one INV", g.queue)
	}
	inv := g.queue[0]
	g.queue = g.queue[1:]
	g.Nodes[1].Handle(inv)
	if g.Nodes[1].CanRead(5) {
		t.Fatal("follower readable while invalidated")
	}
	if g.Nodes[0].CanRead(5) {
		t.Fatal("coordinator readable while write in flight")
	}
	g.drain()
	if !g.Nodes[0].CanRead(5) || !g.Nodes[1].CanRead(5) {
		t.Fatal("not readable after full protocol round")
	}
}

func TestCommitCallbackFiresAfterAllAcks(t *testing.T) {
	g := NewGroup(3)
	committed := false
	g.Nodes[0].Write(9, func() { committed = true })
	if committed {
		t.Fatal("committed before acks")
	}
	g.drain()
	if !committed {
		t.Fatal("never committed")
	}
}

func TestSingleNodeGroupCommitsImmediately(t *testing.T) {
	g := NewGroup(1)
	committed := false
	g.Nodes[0].Write(1, func() { committed = true })
	if !committed {
		t.Fatal("single-replica write needs no acks")
	}
}

func TestConcurrentWritersConverge(t *testing.T) {
	g := NewGroup(3)
	// Both coordinators write the same key before any message delivery.
	g.Nodes[0].Write(3, nil)
	g.Nodes[1].Write(3, nil)
	g.drain()
	// All replicas converge on one timestamp and become valid.
	ts := timestampOf(g.Nodes[0], 3)
	for _, n := range g.Nodes {
		if got := timestampOf(n, 3); got != ts {
			t.Fatalf("node %d ts %+v != %+v", n.ID(), got, ts)
		}
		if !n.CanRead(3) {
			t.Fatalf("node %d not readable after convergence", n.ID())
		}
	}
}

func TestSupersededWriteStillCommits(t *testing.T) {
	g := NewGroup(2)
	first := false
	g.Nodes[0].Write(4, func() { first = true })
	// Same coordinator writes again before the first commit.
	second := false
	g.Nodes[0].Write(4, func() { second = true })
	if !first {
		t.Fatal("superseded write's callback must fire (ordered before)")
	}
	g.drain()
	if !second {
		t.Fatal("second write never committed")
	}
}

func TestStaleInvIgnored(t *testing.T) {
	g := NewGroup(2)
	g.Write(1, 8) // node 1 coordinates: version advances everywhere
	// A stale INV with an old timestamp must not invalidate.
	g.Nodes[0].Handle(Message{Type: MsgInv, From: 1, To: 0, LPN: 8, TS: Timestamp{Version: 0, NodeID: 1}})
	if !g.Nodes[0].CanRead(8) {
		t.Fatal("stale INV invalidated a newer copy")
	}
}

func TestMisroutedMessagePanics(t *testing.T) {
	g := NewGroup(2)
	defer func() {
		if recover() == nil {
			t.Error("misrouted message accepted")
		}
	}()
	g.Nodes[0].Handle(Message{Type: MsgAck, From: 1, To: 1})
}

func TestNewNodeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("node outside peer list accepted")
		}
	}()
	NewNode(5, []int{0, 1}, func(Message) {})
}

func TestNilTransportPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil transport accepted")
		}
	}()
	NewNode(0, []int{0}, nil)
}

func TestGroupSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty group accepted")
		}
	}()
	NewGroup(0)
}

// Property: after any sequence of (coordinator, key) writes with full
// message delivery, every replica of every written key is Valid and all
// replicas agree on the winning timestamp.
func TestConvergenceProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		g := NewGroup(3)
		keys := map[uint32]bool{}
		for _, op := range ops {
			coord := int(op) % 3
			lpn := uint32(op>>2) % 8
			g.Nodes[coord].Write(lpn, nil)
			keys[lpn] = true
			if op%4 == 0 {
				g.drain() // vary interleaving
			}
		}
		g.drain()
		for lpn := range keys {
			ts := timestampOf(g.Nodes[0], lpn)
			for _, n := range g.Nodes {
				if !n.CanRead(lpn) || timestampOf(n, lpn) != ts {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: at least one replica can always serve a read for a key with no
// in-flight write, the invariant the switch's redirection relies on.
func TestReadAvailabilityProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		g := NewGroup(2)
		for _, op := range ops {
			lpn := uint32(op) % 4
			g.Write(int(op)%2, lpn) // synchronous: commit before next op
			if len(g.ReadableReplicas(lpn)) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRemovePeerCompletesPendingWrites(t *testing.T) {
	g := NewGroup(2)
	committed := false
	g.Nodes[0].Write(6, func() { committed = true })
	// Peer dies before acking.
	g.Nodes[0].RemovePeer(1)
	if !committed {
		t.Fatal("pending write did not commit after peer removal")
	}
	// Future writes commit alone, without queuing messages for the dead.
	solo := false
	g.queue = nil
	g.Nodes[0].Write(7, func() { solo = true })
	if !solo {
		t.Fatal("degraded write did not commit immediately")
	}
	for _, m := range g.queue {
		if m.To == 1 && m.Type == MsgInv {
			t.Fatal("INV still sent to removed peer")
		}
	}
}

func TestRemovePeerThreeNodeGroup(t *testing.T) {
	g := NewGroup(3)
	committed := false
	g.Nodes[0].Write(9, func() { committed = true })
	g.Nodes[0].RemovePeer(2) // one of two followers dies
	if committed {
		t.Fatal("write committed before the live follower acked")
	}
	g.drain()
	if !committed {
		t.Fatal("write never committed with the surviving follower")
	}
}

// Regression: RemovePeer and Rejoin release every pending write, and each
// release runs a callback that schedules events in the simulator. They
// used to range over the pending map, so the callbacks ran in a
// different order on every run; they must run in ascending key order.
func TestPendingWritesReleaseInKeyOrder(t *testing.T) {
	for _, release := range []struct {
		name string
		do   func(n *Node)
	}{
		{"RemovePeer", func(n *Node) { n.RemovePeer(1) }},
		{"Rejoin", func(n *Node) { n.Rejoin() }},
	} {
		n := NewNode(0, []int{0, 1}, func(Message) {}) // acks never arrive
		var order []uint32
		for i := uint32(0); i < 64; i++ {
			lpn := (i * 37) % 64 // every key once, out of order
			n.Write(lpn, func() { order = append(order, lpn) })
		}
		release.do(n)
		if len(order) != 64 {
			t.Fatalf("%s released %d of 64 pending writes", release.name, len(order))
		}
		for i, lpn := range order {
			if lpn != uint32(i) {
				t.Fatalf("%s released writes in order %v, want ascending keys", release.name, order)
			}
		}
	}
}

// refKey is one key's replica state in the reference model.
type refKey struct {
	st State
	ts Timestamp
}

// mapNode is a map-keyed Node, the reference model of
// TestNodeMatchesMapModel.
type mapNode struct {
	id      int
	peers   []int
	version uint64
	keys    map[uint32]refKey
	pending map[uint32]*pendingWrite
	send    Transport
}

func newMapNode(id int, peers []int, send Transport) *mapNode {
	return &mapNode{id: id, peers: append([]int(nil), peers...),
		keys: map[uint32]refKey{}, pending: map[uint32]*pendingWrite{}, send: send}
}

func (n *mapNode) pendingLPNs() []uint32 {
	var lpns []uint32
	for lpn := range n.pending {
		lpns = append(lpns, lpn)
	}
	slices.Sort(lpns)
	return lpns
}

func (n *mapNode) Write(lpn uint32, onCommit func()) {
	n.version++
	ts := Timestamp{Version: n.version, NodeID: n.id}
	n.keys[lpn] = refKey{st: Writing, ts: ts}
	if prev, ok := n.pending[lpn]; ok && prev.onCommit != nil {
		prev.onCommit()
	}
	pw := &pendingWrite{ts: ts, onCommit: onCommit}
	for _, p := range n.peers {
		if p != n.id {
			pw.awaiting = append(pw.awaiting, p)
			n.send(Message{Type: MsgInv, From: n.id, To: p, LPN: lpn, TS: ts})
		}
	}
	n.pending[lpn] = pw
	if len(pw.awaiting) == 0 {
		n.commit(lpn, pw)
	}
}

func (n *mapNode) commit(lpn uint32, pw *pendingWrite) {
	delete(n.pending, lpn)
	if k := n.keys[lpn]; k.ts == pw.ts {
		n.keys[lpn] = refKey{st: Valid, ts: k.ts}
		for _, p := range n.peers {
			if p != n.id {
				n.send(Message{Type: MsgVal, From: n.id, To: p, LPN: lpn, TS: pw.ts})
			}
		}
	}
	if pw.onCommit != nil {
		pw.onCommit()
	}
}

func (n *mapNode) Rejoin() {
	for _, lpn := range n.pendingLPNs() {
		if pw := n.pending[lpn]; pw.onCommit != nil {
			pw.onCommit()
		}
	}
	n.keys = map[uint32]refKey{}
	n.pending = map[uint32]*pendingWrite{}
}

func (n *mapNode) RemovePeer(dead int) {
	n.peers = slices.DeleteFunc(n.peers, func(p int) bool { return p == dead })
	for _, lpn := range n.pendingLPNs() {
		pw := n.pending[lpn]
		if pw.stopAwaiting(dead) && len(pw.awaiting) == 0 {
			n.commit(lpn, pw)
		}
	}
}

func (n *mapNode) Handle(msg Message) {
	if msg.TS.Version > n.version {
		n.version = msg.TS.Version
	}
	switch msg.Type {
	case MsgInv:
		if n.keys[msg.LPN].ts.Less(msg.TS) {
			n.keys[msg.LPN] = refKey{st: Invalid, ts: msg.TS}
		}
		n.send(Message{Type: MsgAck, From: n.id, To: msg.From, LPN: msg.LPN, TS: msg.TS})
	case MsgAck:
		pw, ok := n.pending[msg.LPN]
		if !ok || pw.ts != msg.TS {
			return
		}
		pw.stopAwaiting(msg.From)
		if len(pw.awaiting) == 0 {
			n.commit(msg.LPN, pw)
		}
	case MsgVal:
		if k := n.keys[msg.LPN]; k.ts == msg.TS && k.st == Invalid {
			n.keys[msg.LPN] = refKey{st: Valid, ts: k.ts}
		}
	}
}

// Property: on any sequence of writes, message deliveries and losses,
// peer removals and rejoins, a group of two or three paged Nodes sends
// the same messages, fires the same commit callbacks in the same order,
// and holds the same KeyState and timestamp for every key as a group of
// map-keyed reference nodes driven identically. The keys sit at both
// edges and the middle of six pages, the highest 40 pages up, and each
// node's first write goes to one of the highest, so page tables start
// from a high first touch.
func TestNodeMatchesMapModel(t *testing.T) {
	var lpns []uint32
	for _, p := range []uint32{40, 9, 3, 2, 1, 0} {
		for _, off := range []uint32{pageKeys - 1, pageKeys / 2, 1, 0} {
			lpns = append(lpns, p*pageKeys+off)
		}
	}
	// Keys never drawn, on drawn and undrawn pages, must stay valid.
	probes := append([]uint32{2, pageKeys - 2, 5 * pageKeys, 41*pageKeys + 3, 1 << 20}, lpns...)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 2 + rng.Intn(2)
		var queue, refQueue []Message
		var commits, refCommits []int
		var paged []*Node
		var ref []*mapNode
		peers := []int{0, 1, 2}[:nodes]
		for i := 0; i < nodes; i++ {
			paged = append(paged, NewNode(i, peers, func(m Message) { queue = append(queue, m) }))
			ref = append(ref, newMapNode(i, peers, func(m Message) { refQueue = append(refQueue, m) }))
		}
		for w := 0; w < 400; w++ {
			n := rng.Intn(nodes)
			lpn := lpns[rng.Intn(len(lpns))]
			op := rng.Intn(20)
			if w < nodes {
				n, lpn, op = w, lpns[w], 0
			}
			switch {
			case op < 9:
				paged[n].Write(lpn, func() { commits = append(commits, w) })
				ref[n].Write(lpn, func() { refCommits = append(refCommits, w) })
			case op < 17:
				if len(queue) > 0 {
					m := queue[0]
					queue, refQueue = queue[1:], refQueue[1:]
					paged[m.To].Handle(m)
					ref[m.To].Handle(m)
				}
			case op == 17:
				if len(queue) > 0 {
					queue, refQueue = queue[1:], refQueue[1:] // lost
				}
			case op == 18:
				dead := (n + 1 + rng.Intn(nodes-1)) % nodes
				paged[n].RemovePeer(dead)
				ref[n].RemovePeer(dead)
			default:
				paged[n].Rejoin()
				ref[n].Rejoin()
			}
			if !slices.Equal(queue, refQueue) || !slices.Equal(commits, refCommits) {
				return false
			}
			for i := range paged {
				for _, k := range probes {
					want := ref[i].keys[k]
					if paged[i].KeyState(k) != want.st || timestampOf(paged[i], k) != want.ts ||
						paged[i].CanRead(k) != (want.st == Valid) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
