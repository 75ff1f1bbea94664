// Package replication implements a Hermes-style broadcast replication
// protocol (invalidate -> ack -> validate), the scheme RackBlox uses to
// keep vSSD replicas strongly consistent while the switch redirects reads
// (§3.5.1: "our implementation uses Hermes [37] to ensure strong
// consistency between replicas and correctness when redirecting requests").
//
// Any replica can coordinate a write: it invalidates the key everywhere,
// gathers acks, then validates. Reads are served locally by any replica
// whose copy is valid, which is exactly the property the ToR switch relies
// on when it redirects a read to the non-collecting replica.
package replication

import (
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// State is the per-key replica state.
type State uint8

const (
	// Valid copies serve reads.
	Valid State = iota
	// Invalid copies have been invalidated by an in-flight write.
	Invalid
	// Writing marks the coordinator's own in-flight write.
	Writing
)

func (s State) String() string {
	switch s {
	case Valid:
		return "valid"
	case Invalid:
		return "invalid"
	case Writing:
		return "writing"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Timestamp is a Lamport logical timestamp with the node id as tiebreak,
// giving writes a total order.
type Timestamp struct {
	Version uint64
	NodeID  int
}

// Less orders timestamps.
func (t Timestamp) Less(o Timestamp) bool {
	if t.Version != o.Version {
		return t.Version < o.Version
	}
	return t.NodeID < o.NodeID
}

// MsgType enumerates protocol messages.
type MsgType uint8

const (
	// MsgInv invalidates a key at a follower.
	MsgInv MsgType = iota
	// MsgAck acknowledges an invalidation.
	MsgAck
	// MsgVal re-validates a key after the write committed.
	MsgVal
)

func (m MsgType) String() string {
	switch m {
	case MsgInv:
		return "INV"
	case MsgAck:
		return "ACK"
	case MsgVal:
		return "VAL"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(m))
	}
}

// Message is one protocol message.
type Message struct {
	Type     MsgType
	From, To int
	LPN      uint32
	TS       Timestamp
}

// Transport delivers a message to its destination node; the rack provides
// it and charges network latency.
type Transport func(msg Message)

// pageBits sets the size of a node's key pages: 1024 keys, 16 KiB. A
// vSSD's keyspace of a few thousand keys then takes a few pages, each
// allocated once and never copied.
const (
	pageBits = 10
	pageKeys = 1 << pageBits
)

// slot is one key's replica state in 16 bytes: the key's Timestamp,
// flattened with its NodeID narrowed to int32, its State, and write, the
// 1-based index in Node.writes of the key's in-flight coordinator write
// (0 when none). The zero slot — valid, never written — is the state of
// every key the node has not touched.
type slot struct {
	version uint64
	node    int32
	st      State
	write   uint16
}

// ts returns the slot's timestamp.
func (s slot) ts() Timestamp { return Timestamp{Version: s.version, NodeID: int(s.node)} }

// set records state st at timestamp ts, keeping the in-flight write.
func (s *slot) set(st State, ts Timestamp) {
	s.version, s.node, s.st = ts.Version, int32(ts.NodeID), st
}

// keyPage holds the slots of pageKeys consecutive keys.
type keyPage [pageKeys]slot

// pendingWrite is one coordinator write waiting for acks. Finished writes
// go back to the node's free list, so steady-state writes allocate
// nothing.
type pendingWrite struct {
	ts Timestamp
	// awaiting lists the peers whose ack is outstanding (a handful at
	// most, so a slice beats a map).
	awaiting []int
	onCommit func()
	// idx is the write's 1-based index in Node.writes, the value a slot
	// names it by; next chains the node's free writes.
	idx  uint16
	next *pendingWrite
}

// stopAwaiting removes peer from the outstanding acks, reporting whether
// it was there.
func (pw *pendingWrite) stopAwaiting(peer int) bool {
	i := slices.Index(pw.awaiting, peer)
	if i < 0 {
		return false
	}
	pw.awaiting = slices.Delete(pw.awaiting, i, i+1)
	return true
}

// Node is one replica endpoint of a group.
type Node struct {
	id      int
	peers   []int
	version uint64
	// pages is the key table: page lpn>>pageBits holds lpn's slot. A
	// page is allocated when the node first writes or invalidates one of
	// its keys and is never copied, so a node that only serves reads
	// allocates no table at all.
	pages []*keyPage
	// writes holds every pendingWrite the node has made, at index idx-1;
	// free chains the finished ones for reuse.
	writes []*pendingWrite
	free   *pendingWrite
	send   Transport
}

// NewNode creates replica id within a fixed peer group. peers lists every
// member including id itself.
func NewNode(id int, peers []int, send Transport) *Node {
	if send == nil {
		panic("replication: nil transport")
	}
	if id != int(int32(id)) {
		panic(fmt.Sprintf("replication: node id %d overflows int32", id))
	}
	found := false
	for _, p := range peers {
		if p == id {
			found = true
		}
	}
	if !found {
		panic(fmt.Sprintf("replication: node %d not in peer list %v", id, peers))
	}
	return &Node{
		id:    id,
		peers: append([]int(nil), peers...),
		send:  send,
	}
}

// ID returns the node id.
func (n *Node) ID() int { return n.id }

// find returns lpn's slot, nil when its page was never touched.
func (n *Node) find(lpn uint32) *slot {
	if p := int(lpn >> pageBits); p < len(n.pages) && n.pages[p] != nil {
		return &n.pages[p][lpn&(pageKeys-1)]
	}
	return nil
}

// key returns lpn's replica state; untouched keys are valid.
func (n *Node) key(lpn uint32) slot {
	if s := n.find(lpn); s != nil {
		return *s
	}
	return slot{}
}

// slotOf returns lpn's slot, allocating its page on first touch.
func (n *Node) slotOf(lpn uint32) *slot {
	p := int(lpn >> pageBits)
	if p >= len(n.pages) || n.pages[p] == nil {
		n.addPage(p)
	}
	return &n.pages[p][lpn&(pageKeys-1)]
}

// addPage allocates page p of the key table.
func (n *Node) addPage(p int) {
	if p >= len(n.pages) {
		n.pages = append(n.pages, make([]*keyPage, p+1-len(n.pages))...)
	}
	n.pages[p] = new(keyPage)
}

// pendingOf returns the in-flight coordinator write s names, nil when
// none.
func (n *Node) pendingOf(s slot) *pendingWrite {
	if s.write == 0 {
		return nil
	}
	return n.writes[s.write-1]
}

// Footprint reports the node's key table: the keys its allocated pages
// cover and the bytes those pages hold, both zero until the node first
// writes or invalidates a key (tests, introspection).
func (n *Node) Footprint() (keys, bytes int) {
	for _, pg := range n.pages {
		if pg != nil {
			keys += len(pg)
			bytes += int(unsafe.Sizeof(*pg))
		}
	}
	return keys, bytes
}

// CanRead reports whether this replica may serve a local read of lpn.
// Unwritten keys are trivially consistent.
func (n *Node) CanRead(lpn uint32) bool { return n.key(lpn).st == Valid }

// KeyState exposes the replica state of a key (tests, introspection).
func (n *Node) KeyState(lpn uint32) State { return n.key(lpn).st }

// acquire returns a free pendingWrite, making a new one when none is
// free.
func (n *Node) acquire() *pendingWrite {
	if pw := n.free; pw != nil {
		n.free, pw.next = pw.next, nil
		return pw
	}
	return n.newWrite()
}

// newWrite makes a pendingWrite and gives it the next index.
func (n *Node) newWrite() *pendingWrite {
	if len(n.writes) == math.MaxUint16 {
		panic(fmt.Sprintf("replication: node %d has %d writes in flight", n.id, len(n.writes)))
	}
	pw := &pendingWrite{idx: uint16(len(n.writes) + 1)}
	n.writes = append(n.writes, pw)
	return pw
}

// release returns a finished pending write to the free list, keeping its
// awaiting slice's capacity for the next write.
func (n *Node) release(pw *pendingWrite) {
	pw.awaiting, pw.onCommit = pw.awaiting[:0], nil
	pw.next, n.free = n.free, pw
}

// Write starts a coordinator write of lpn at this node. onCommit fires
// once every replica has acknowledged the invalidation (the Hermes commit
// point). A second write to the same key before commit supersedes the
// first; the superseded write's callback fires immediately since it is
// linearized before the newer one.
func (n *Node) Write(lpn uint32, onCommit func()) {
	n.version++
	ts := Timestamp{Version: n.version, NodeID: n.id}
	// Pages are never copied, so s stays valid across the callbacks.
	s := n.slotOf(lpn)
	s.set(Writing, ts)

	if prev := n.pendingOf(*s); prev != nil {
		if prev.onCommit != nil {
			prev.onCommit()
		}
		n.release(prev)
	}
	pw := n.acquire()
	pw.ts, pw.onCommit = ts, onCommit
	for _, p := range n.peers {
		if p == n.id {
			continue
		}
		pw.awaiting = append(pw.awaiting, p)
		n.send(Message{Type: MsgInv, From: n.id, To: p, LPN: lpn, TS: ts})
	}
	s.write = pw.idx
	if len(pw.awaiting) == 0 {
		n.commit(s, lpn, pw)
	}
}

// commit completes pw, the in-flight write of lpn, whose slot is s.
func (n *Node) commit(s *slot, lpn uint32, pw *pendingWrite) {
	s.write = 0
	if s.ts() == pw.ts {
		s.st = Valid
		for _, p := range n.peers {
			if p != n.id {
				n.send(Message{Type: MsgVal, From: n.id, To: p, LPN: lpn, TS: pw.ts})
			}
		}
	}
	done := pw.onCommit
	n.release(pw)
	if done != nil {
		done()
	}
}

// AddPeer re-admits a peer after revival: future writes invalidate it
// again, restoring full-group durability. Idempotent — re-adding a
// present peer changes nothing. In-flight writes keep their original
// quorum; only writes started after the re-pairing wait for the
// returned node's acks.
func (n *Node) AddPeer(peer int) {
	for _, p := range n.peers {
		if p == peer {
			return
		}
	}
	n.peers = append(n.peers, peer)
}

// Peers returns the node's current peer group (introspection, tests).
func (n *Node) Peers() []int { return append([]int(nil), n.peers...) }

// Rejoin resets the node's per-key replica state and in-flight writes
// while keeping its identity, peer list, and Lamport clock: the model
// of a revived server whose DRAM and flash are gone rejoining the
// group empty. Superseded in-flight writes release their callbacks in
// key order — each callback schedules events and draws randomness — so
// no client waits on a commit that can never happen.
func (n *Node) Rejoin() {
	for _, pg := range n.pages {
		if pg == nil {
			continue
		}
		for i := range pg {
			pw := n.pendingOf(pg[i])
			if pw == nil {
				continue
			}
			pg[i].write = 0
			if pw.onCommit != nil {
				pw.onCommit()
			}
			n.release(pw)
		}
	}
	for _, pg := range n.pages {
		if pg != nil {
			clear(pg[:])
		}
	}
}

// RemovePeer degrades the group after peer death: in-flight writes stop
// waiting for the dead node's acks and future writes skip it. With a
// two-node group the survivor commits alone, which matches the paper's
// durability model of relying on the remaining replicas (§3.5.1, §3.7).
func (n *Node) RemovePeer(dead int) {
	kept := n.peers[:0]
	for _, p := range n.peers {
		if p != dead {
			kept = append(kept, p)
		}
	}
	n.peers = kept
	// Writes that no longer wait for anyone commit in key order: each
	// commit schedules events and draws randomness.
	for p, pg := range n.pages {
		if pg == nil {
			continue
		}
		for i := range pg {
			if pw := n.pendingOf(pg[i]); pw != nil && pw.stopAwaiting(dead) && len(pw.awaiting) == 0 {
				n.commit(&pg[i], uint32(p<<pageBits|i), pw)
			}
		}
	}
}

// Handle processes one incoming protocol message.
func (n *Node) Handle(msg Message) {
	if msg.To != n.id {
		panic(fmt.Sprintf("replication: node %d got message for %d", n.id, msg.To))
	}
	// Lamport clock advance keeps future local writes ordered after
	// everything this node has seen.
	if msg.TS.Version > n.version {
		n.version = msg.TS.Version
	}
	switch msg.Type {
	case MsgInv:
		// An untouched key's zero timestamp precedes every write's, so
		// taking the slot allocates only where the key is then set.
		if s := n.slotOf(msg.LPN); s.ts().Less(msg.TS) {
			s.set(Invalid, msg.TS)
		}
		n.send(Message{Type: MsgAck, From: n.id, To: msg.From, LPN: msg.LPN, TS: msg.TS})
	case MsgAck:
		s := n.find(msg.LPN)
		if s == nil {
			return
		}
		pw := n.pendingOf(*s)
		if pw == nil || pw.ts != msg.TS {
			return // ack for a superseded write
		}
		pw.stopAwaiting(msg.From)
		if len(pw.awaiting) == 0 {
			n.commit(s, msg.LPN, pw)
		}
	case MsgVal:
		if s := n.find(msg.LPN); s != nil && s.ts() == msg.TS && s.st == Invalid {
			s.st = Valid
		}
	}
}

// Group wires a set of nodes with an in-memory FIFO transport, for direct
// use and tests; the rack replaces the transport with one that models
// network latency.
type Group struct {
	Nodes []*Node
	queue []Message
}

// NewGroup builds n fully connected replicas with synchronous delivery.
func NewGroup(n int) *Group {
	if n < 1 {
		panic("replication: group size must be >= 1")
	}
	g := &Group{}
	peers := make([]int, n)
	for i := range peers {
		peers[i] = i
	}
	for i := 0; i < n; i++ {
		g.Nodes = append(g.Nodes, NewNode(i, peers, func(m Message) {
			g.queue = append(g.queue, m)
		}))
	}
	return g
}

// drain pumps queued messages to quiescence.
func (g *Group) drain() {
	for len(g.queue) > 0 {
		m := g.queue[0]
		g.queue = g.queue[1:]
		g.Nodes[m.To].Handle(m)
	}
}

// Write performs a synchronous group write coordinated by node coord.
func (g *Group) Write(coord int, lpn uint32) {
	committed := false
	g.Nodes[coord].Write(lpn, func() { committed = true })
	g.drain()
	if !committed {
		panic("replication: synchronous group write did not commit")
	}
}

// ReadableReplicas returns the ids of replicas that can serve lpn.
func (g *Group) ReadableReplicas(lpn uint32) []int {
	var out []int
	for _, n := range g.Nodes {
		if n.CanRead(lpn) {
			out = append(out, n.ID())
		}
	}
	return out
}
