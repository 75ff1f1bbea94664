// Package replication is a simdeterminism fixture shaped like the Hermes
// node: the transport and the commit callbacks are function values the
// analyzer cannot resolve, so calling one in map order is a finding,
// directly or through a local method; iterating sorted keys is not.
package replication

import "sort"

// Message is one protocol message.
type Message struct {
	To  int
	LPN uint32
}

type pendingWrite struct {
	awaiting []int
	onCommit func()
}

// Node is one replica endpoint.
type Node struct {
	id      int
	pending map[uint32]*pendingWrite
	send    func(Message)
}

// RemovePeer commits the writes that only waited for the dead peer, in
// map order: each commit sends messages and releases a callback.
func (n *Node) RemovePeer(dead int) {
	for lpn, pw := range n.pending { // want "calls a function value that may schedule events"
		if len(pw.awaiting) == 1 && pw.awaiting[0] == dead {
			n.commit(lpn, pw)
		}
	}
}

// Rejoin calls the callbacks directly.
func (n *Node) Rejoin() {
	for _, pw := range n.pending { // want "calls a function value that may schedule events"
		pw.onCommit()
	}
}

// broadcast calls a func-typed parameter.
func broadcast(peers map[int]bool, send func(Message)) {
	for p := range peers { // want "calls a function value that may schedule events"
		send(Message{To: p})
	}
}

func (n *Node) commit(lpn uint32, pw *pendingWrite) {
	delete(n.pending, lpn)
	n.send(Message{To: 1 - n.id, LPN: lpn})
	pw.onCommit()
}

// RemovePeerSorted is the fix: commits run in key order.
func (n *Node) RemovePeerSorted(dead int) {
	lpns := make([]uint32, 0, len(n.pending))
	for lpn := range n.pending {
		lpns = append(lpns, lpn)
	}
	sort.Slice(lpns, func(i, j int) bool { return lpns[i] < lpns[j] })
	for _, lpn := range lpns {
		if pw := n.pending[lpn]; len(pw.awaiting) == 1 && pw.awaiting[0] == dead {
			n.commit(lpn, pw)
		}
	}
}

// Conversions, builtins, and immediately invoked literals are not calls
// through function values.
func counts(m map[uint32]*pendingWrite) (n int) {
	for lpn, pw := range m {
		n += len(pw.awaiting) + int(uint64(lpn))
		func() { n++ }()
	}
	return n
}
