package core

// reqTable maps the seq of every in-flight request to its state. It is
// an open-addressed hash table keyed by the seq itself: seqs are issued
// one after another, so the live ones mostly sit in consecutive slots
// from seq & mask and a lookup is one probe. Linear probing resolves the
// collisions a straggler causes (a request still live while a capacity's
// worth of later seqs came and went), and deletion shifts the rest of
// the probe run back instead of leaving tombstones, so runs stay as
// short as the live set allows. The capacity is a power of two, the
// smallest at least twice the peak live count: it grows with the number
// of requests in flight, never with the span of their seqs.
type reqTable struct {
	slots []reqSlot
	n     int
}

// reqSlot is one table entry. Seqs start at 1, so seq 0 marks an empty
// slot (whose st is nil, which makes get(0) a miss).
type reqSlot struct {
	seq uint64
	st  *reqState
}

// get returns the state of request seq, or nil when it is not in flight.
func (t *reqTable) get(seq uint64) *reqState {
	if len(t.slots) == 0 {
		return nil
	}
	mask := uint64(len(t.slots) - 1)
	for i := seq & mask; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.seq == seq || s.seq == 0 {
			return s.st
		}
	}
}

// put files st under st.seq: nonzero, and not in flight already (the
// datapath issues each seq once).
func (t *reqTable) put(st *reqState) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	t.insert(reqSlot{st.seq, st})
	t.n++
}

// insert files s in the first free slot of its probe run.
func (t *reqTable) insert(s reqSlot) {
	mask := uint64(len(t.slots) - 1)
	i := s.seq & mask
	for t.slots[i].seq != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

// del removes request seq, if present.
func (t *reqTable) del(seq uint64) {
	if len(t.slots) == 0 {
		return
	}
	mask := uint64(len(t.slots) - 1)
	i := seq & mask
	for t.slots[i].seq != seq {
		if t.slots[i].seq == 0 {
			return
		}
		i = (i + 1) & mask
	}
	// Backward shift: walk the rest of the probe run and move into the
	// hole at i every entry whose probe path from its home slot passes
	// through i, that is, whose home is no nearer to it than the hole.
	for j := (i + 1) & mask; t.slots[j].seq != 0; j = (j + 1) & mask {
		home := t.slots[j].seq & mask
		if (j-home)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = reqSlot{}
	t.n--
}

// grow doubles the capacity (from 2 when empty) and refiles every entry.
func (t *reqTable) grow() {
	old := t.slots
	t.slots = make([]reqSlot, max(2, 2*len(old)))
	for _, s := range old {
		if s.seq != 0 {
			t.insert(s)
		}
	}
}
