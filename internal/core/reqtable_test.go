package core

import (
	"math/rand"
	"testing"
)

// Model check: the request table answers every lookup exactly as a plain
// map does, through random runs of the datapath's three operations —
// issue (a new seq), completion (remove) and the loss detector's
// retransmission (remove, then refile the same state under a new seq).
// Each run keeps a few stragglers live while thousands of later seqs
// come and go, so probe runs collide with and wrap past them, and the
// capacity must stay within 4x the peak number in flight.
func TestReqTableMatchesMap(t *testing.T) {
	var walked, wrapped int
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		var tab reqTable
		model := map[uint64]*reqState{}
		var live, stragglers []uint64
		var seq uint64
		peak := 0

		check := func(k uint64) {
			t.Helper()
			if got, want := tab.get(k), model[k]; got != want {
				t.Fatalf("seed %d: get(%d) = %p, map has %p", seed, k, got, want)
			}
		}
		file := func(st *reqState) {
			seq++
			st.seq = seq
			tab.put(st)
			model[seq] = st
			check(seq)
		}
		// remove deletes k from both, noting whether later entries
		// followed it in its probe run (which the deletion walks and
		// may shift back) and whether that run wraps the array.
		remove := func(k uint64) {
			mask := uint64(len(tab.slots) - 1)
			i := k & mask
			for tab.slots[i].seq != k {
				i = (i + 1) & mask
			}
			if next := (i + 1) & mask; tab.slots[next].seq != 0 {
				walked++
				for j := next; tab.slots[j].seq != 0; j = (j + 1) & mask {
					if j == 0 {
						wrapped++
						break
					}
				}
			}
			tab.del(k)
			delete(model, k)
			check(k)
		}
		take := func(idx int) uint64 {
			k := live[idx]
			live[idx] = live[len(live)-1]
			live = live[:len(live)-1]
			return k
		}

		check(1) // empty table
		tab.del(1)
		for i := 0; i < 4; i++ {
			file(&reqState{})
			stragglers = append(stragglers, seq)
		}
		target := 1
		for step := 0; step < 20000; step++ {
			if step%500 == 0 {
				target = 1 + r.Intn(300) // the number in flight drifts
			}
			switch op := r.Intn(10); {
			case len(live) < target && op < 6:
				file(&reqState{})
				live = append(live, seq)
			case len(live) > 0 && op < 9:
				// Completion: mostly among the oldest in flight.
				idx := r.Intn(len(live))
				if op < 8 {
					idx = r.Intn(min(len(live), 8))
				}
				remove(take(idx))
			case len(live) > 0:
				// Loss detector: the state moves to a fresh seq.
				k := take(r.Intn(len(live)))
				st := model[k]
				remove(k)
				file(st)
				live = append(live, seq)
			}
			peak = max(peak, tab.n)
			if len(tab.slots) > 4*peak {
				t.Fatalf("seed %d: capacity %d exceeds 4x the peak live count %d", seed, len(tab.slots), peak)
			}
			if tab.n != len(model) {
				t.Fatalf("seed %d: table holds %d, map %d", seed, tab.n, len(model))
			}
			// Lookups: stragglers, a recent seq, a long-gone one, one
			// never issued, and the control-traffic seq 0.
			for _, k := range stragglers {
				check(k)
			}
			check(seq - uint64(r.Intn(64)))
			check(uint64(r.Int63n(int64(seq))) + 1)
			check(seq + 1 + uint64(r.Intn(64)))
			check(0)
			// Deleting an absent seq is a no-op.
			tab.del(seq + 1 + uint64(r.Intn(64)))
			if k := uint64(r.Int63n(int64(seq))) + 1; model[k] == nil {
				tab.del(k)
			}
			if step%64 == 0 {
				for _, k := range live {
					check(k)
				}
			}
		}
		for _, k := range stragglers {
			remove(k)
		}
		for len(live) > 0 {
			remove(take(r.Intn(len(live))))
		}
		if tab.n != 0 {
			t.Fatalf("seed %d: %d entries left after draining", seed, tab.n)
		}
		t.Logf("seed %d: %d seqs issued, peak %d in flight, capacity %d", seed, seq, peak, len(tab.slots))
	}
	if walked == 0 || wrapped == 0 {
		t.Errorf("deletions followed by a probe run: %d, with the run wrapping the array: %d; want both", walked, wrapped)
	}
}
