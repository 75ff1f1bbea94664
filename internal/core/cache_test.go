package core

import (
	"testing"
	"testing/quick"
)

func TestCacheInsertAndFull(t *testing.T) {
	c := newWriteCache(2)
	if c.Full() {
		t.Fatal("empty cache full")
	}
	if !c.Insert(10) || !c.Insert(11) {
		t.Fatal("inserts rejected below capacity")
	}
	if !c.Full() {
		t.Fatal("cache not full at capacity")
	}
	if c.Insert(12) {
		t.Fatal("insert accepted over capacity")
	}
}

func TestCacheAbsorbsRewrites(t *testing.T) {
	c := newWriteCache(2)
	c.Insert(10)
	for i := 0; i < 5; i++ {
		if !c.Insert(10) {
			t.Fatal("rewrite of dirty page rejected")
		}
	}
	ins, abs := c.Stats()
	if ins != 1 || abs != 5 {
		t.Fatalf("inserted=%d absorbed=%d, want 1/5", ins, abs)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

func TestCacheFlushOrder(t *testing.T) {
	c := newWriteCache(4)
	c.Insert(10)
	c.Insert(11)
	c.Insert(12)
	lpn, ok := c.NextFlush()
	if !ok || lpn != 10 {
		t.Fatalf("first flush = %d/%v, want oldest", lpn, ok)
	}
	lpn2, _ := c.NextFlush()
	if lpn2 != 11 {
		t.Fatalf("second flush = %d, want 11", lpn2)
	}
}

func TestCacheFlushSkipsRewritten(t *testing.T) {
	c := newWriteCache(4)
	c.Insert(10)
	c.Insert(11)
	// Flush 10, then rewrite it: a new FIFO entry appears.
	c.NextFlush()
	c.FlushDone()
	c.Insert(10)
	lpn, ok := c.NextFlush()
	if !ok || lpn != 11 {
		t.Fatalf("flush = %d, want 11 before the rewritten 10", lpn)
	}
	lpn, ok = c.NextFlush()
	if !ok || lpn != 10 {
		t.Fatalf("flush = %d, want rewritten 10", lpn)
	}
}

func TestCacheFlushingCountsAgainstCapacity(t *testing.T) {
	c := newWriteCache(2)
	c.Insert(10)
	c.Insert(11)
	c.NextFlush() // 10 now flushing, still occupying DRAM
	if !c.Full() {
		t.Fatal("cache not full while flush in flight")
	}
	c.FlushDone()
	if c.Full() {
		t.Fatal("cache full after flush completed")
	}
	if !c.Insert(12) {
		t.Fatal("insert rejected after slot freed")
	}
}

func TestCacheEmptyFlush(t *testing.T) {
	c := newWriteCache(2)
	if _, ok := c.NextFlush(); ok {
		t.Fatal("flush from empty cache")
	}
	c.FlushDone() // must not underflow
	if c.Full() {
		t.Fatal("phantom flushing count")
	}
}

// Property: Len never exceeds capacity and dirty+flushing is conserved
// across any operation sequence.
func TestCacheCapacityInvariantProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		c := newWriteCache(8)
		flushing := 0
		for _, op := range ops {
			switch op % 4 {
			case 0, 1:
				c.Insert(uint32(op % 16))
			case 2:
				if _, ok := c.NextFlush(); ok {
					flushing++
				}
			case 3:
				if flushing > 0 {
					c.FlushDone()
					flushing--
				}
			}
			if c.Len() > 8 {
				return false
			}
			if c.Len()+flushing > 8 && !c.Full() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// mapCache is the map-keyed write cache the dense one replaced, kept as
// the reference model of TestCacheMatchesMapModel.
type mapCache struct {
	capacity, flushing int
	dirty              map[uint32]bool
	fifo               []uint32
	inserted, absorbed int64
}

func (m *mapCache) full() bool { return len(m.dirty)+m.flushing >= m.capacity }

func (m *mapCache) insert(lpn uint32) bool {
	if m.dirty[lpn] {
		m.absorbed++
		return true
	}
	if m.full() {
		return false
	}
	m.dirty[lpn] = true
	m.fifo = append(m.fifo, lpn)
	m.inserted++
	return true
}

func (m *mapCache) nextFlush() (uint32, bool) {
	for len(m.fifo) > 0 {
		lpn := m.fifo[0]
		m.fifo = m.fifo[1:]
		if m.dirty[lpn] {
			delete(m.dirty, lpn)
			m.flushing++
			return lpn, true
		}
	}
	return 0, false
}

// Property: on any sequence of Insert, NextFlush and FlushDone the dense
// cache answers every call, and every Contains, exactly as the map-keyed
// model does.
func TestCacheMatchesMapModel(t *testing.T) {
	f := func(capacity uint8, ops []uint16) bool {
		c := newWriteCache(int(capacity%16) + 1)
		m := &mapCache{capacity: int(capacity%16) + 1, dirty: map[uint32]bool{}}
		for _, op := range ops {
			lpn := uint32(op>>2) % 64
			switch op % 4 {
			case 0, 1:
				if c.Insert(lpn) != m.insert(lpn) {
					return false
				}
			case 2:
				got, gotOK := c.NextFlush()
				want, wantOK := m.nextFlush()
				if got != want || gotOK != wantOK {
					return false
				}
			case 3:
				c.FlushDone()
				if m.flushing > 0 {
					m.flushing--
				}
			}
			if c.Len() != len(m.dirty) || c.Full() != m.full() {
				return false
			}
			for k := uint32(0); k < 64; k++ {
				if c.Contains(k) != m.dirty[k] {
					return false
				}
			}
		}
		ins, abs := c.Stats()
		return ins == m.inserted && abs == m.absorbed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
