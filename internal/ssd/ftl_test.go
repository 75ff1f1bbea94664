package ssd

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"rackblox/internal/flash"
	"rackblox/internal/sim"
)

func testGeo() flash.Geometry {
	return flash.Geometry{Channels: 4, ChipsPerChannel: 2, BlocksPerChip: 8, PagesPerBlock: 16, PageSize: 4096}
}

func newDev(t *testing.T) *Device {
	t.Helper()
	d, err := NewDevice(sim.NewEngine(), testGeo(), flash.ProfilePSSD())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newFTL(t *testing.T, d *Device, chips []ChipRef) *FTL {
	t.Helper()
	f, err := NewFTL(d, chips, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewDeviceChannels(t *testing.T) {
	d := newDev(t)
	if got := len(d.AllChips()); got != 8 {
		t.Fatalf("chips = %d, want 8", got)
	}
	if got := len(d.ChannelChips(0)); got != 2 {
		t.Fatalf("channel chips = %d, want 2", got)
	}
	for i := 0; i < 4; i++ {
		if d.Channel(i) == nil {
			t.Fatalf("channel %d missing", i)
		}
	}
}

func TestNewFTLValidation(t *testing.T) {
	d := newDev(t)
	if _, err := NewFTL(d, nil, 0.8); err == nil {
		t.Error("empty chip set accepted")
	}
	if _, err := NewFTL(d, d.AllChips(), 0); err == nil {
		t.Error("zero utilization accepted")
	}
	if _, err := NewFTL(d, d.AllChips(), 1); err == nil {
		t.Error("full utilization accepted")
	}
	if _, err := NewFTL(d, []ChipRef{{Channel: 99}}, 0.8); err == nil {
		t.Error("out-of-range chip accepted")
	}
}

func TestFTLLogicalSpace(t *testing.T) {
	d := newDev(t)
	f := newFTL(t, d, d.ChannelChips(0))
	// 2 chips * 8 blocks * 16 pages = 256 raw pages, 75% = 192 logical.
	if f.LogicalPages() != 192 {
		t.Fatalf("logical pages = %d, want 192", f.LogicalPages())
	}
	if f.TotalBlocks() != 16 {
		t.Fatalf("total blocks = %d, want 16", f.TotalBlocks())
	}
	if f.FreeBlocks() != 16 {
		t.Fatalf("free blocks = %d, want 16", f.FreeBlocks())
	}
	if f.FreeRatio() != 1.0 {
		t.Fatalf("free ratio = %f, want 1", f.FreeRatio())
	}
}

func TestReadUnmapped(t *testing.T) {
	d := newDev(t)
	f := newFTL(t, d, d.ChannelChips(0))
	if _, err := f.Read(0); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("read unmapped err = %v", err)
	}
	if _, err := f.Read(-1); err == nil {
		t.Fatal("negative lpn accepted")
	}
	if _, err := f.Read(f.LogicalPages()); err == nil {
		t.Fatal("out-of-range lpn accepted")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := newDev(t)
	f := newFTL(t, d, d.ChannelChips(0))
	w, err := f.Write(7)
	if err != nil {
		t.Fatal(err)
	}
	r, err := f.Read(7)
	if err != nil {
		t.Fatal(err)
	}
	if r != w {
		t.Fatalf("read addr %v != write addr %v", r, w)
	}
}

func TestOverwriteInvalidatesOld(t *testing.T) {
	d := newDev(t)
	f := newFTL(t, d, d.ChannelChips(0))
	a1, _ := f.Write(3)
	a2, err := f.Write(3)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Fatal("overwrite reused the same physical page")
	}
	if st := d.Array().BlockAt(a1).State[a1.Page]; st != flash.PageInvalid {
		t.Fatalf("old page state = %v, want invalid", st)
	}
	r, _ := f.Read(3)
	if r != a2 {
		t.Fatal("mapping not updated")
	}
}

func TestWritesRotateAcrossChips(t *testing.T) {
	d := newDev(t)
	f := newFTL(t, d, d.ChannelChips(0)) // 2 chips
	a1, _ := f.Write(0)
	a2, _ := f.Write(1)
	if a1.Chip == a2.Chip {
		t.Fatalf("consecutive writes on same chip %d, want round robin", a1.Chip)
	}
}

func TestWritesStayInsideOwnedChips(t *testing.T) {
	d := newDev(t)
	chips := d.ChannelChips(2)
	f := newFTL(t, d, chips)
	for i := 0; i < f.LogicalPages(); i++ {
		a, err := f.Write(i)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if a.Channel != 2 {
			t.Fatalf("write landed on channel %d, want 2", a.Channel)
		}
	}
}

func TestFreeRatioDeclinesWithWrites(t *testing.T) {
	d := newDev(t)
	f := newFTL(t, d, d.ChannelChips(0))
	before := f.FreeRatio()
	for i := 0; i < f.LogicalPages()/2; i++ {
		if _, err := f.Write(i); err != nil {
			t.Fatal(err)
		}
	}
	if f.FreeRatio() >= before {
		t.Fatalf("free ratio %f did not decline from %f", f.FreeRatio(), before)
	}
}

func TestHostWriteCounter(t *testing.T) {
	d := newDev(t)
	f := newFTL(t, d, d.ChannelChips(0))
	for i := 0; i < 10; i++ {
		f.Write(i % 3)
	}
	if f.HostWrites() != 10 {
		t.Fatalf("host writes = %d, want 10", f.HostWrites())
	}
	if f.WriteAmplification() != 1 {
		t.Fatalf("WA = %f before GC, want 1", f.WriteAmplification())
	}
}

func TestENOSPCWhenExhausted(t *testing.T) {
	d := newDev(t)
	// Single chip, high utilization: fill logical space then overwrite
	// until the device cannot allocate without GC.
	f, err := NewFTL(d, []ChipRef{{Channel: 0, Chip: 0}}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	sawNoSpace := false
	for i := 0; i < 4*f.LogicalPages(); i++ {
		if _, err := f.Write(i % f.LogicalPages()); err != nil {
			if !errors.Is(err, ErrNoSpace) {
				t.Fatalf("unexpected error: %v", err)
			}
			sawNoSpace = true
			break
		}
	}
	if !sawNoSpace {
		t.Fatal("device never ran out of space without GC")
	}
}

func TestGCReclaimsSpace(t *testing.T) {
	d := newDev(t)
	f := newFTL(t, d, d.ChannelChips(0))
	// Fill the space, then repeatedly overwrite a skewed subset with a
	// stride so victim blocks mix valid and stale pages, forcing GC moves.
	for i := 0; i < f.LogicalPages(); i++ {
		if _, err := f.Write(i); err != nil {
			t.Fatal(err)
		}
	}
	n := f.LogicalPages()
	for i := 0; i < 4*n; i++ {
		lpn := (i * 7) % (n / 2) // hot first half, stride 7
		if _, err := f.Write(lpn); err != nil {
			if !errors.Is(err, ErrNoSpace) {
				t.Fatal(err)
			}
			if _, ok := f.CollectOnce(); !ok {
				t.Fatalf("GC found no victim at write %d, free ratio %f", i, f.FreeRatio())
			}
			i-- // retry the failed write
		}
	}
	if f.GCErases() == 0 {
		t.Fatal("no GC happened during overwrite workload")
	}
	if wa := f.WriteAmplification(); wa <= 1 {
		t.Fatalf("WA = %f, want > 1 after GC", wa)
	}
}

func TestGCPreservesMappings(t *testing.T) {
	d := newDev(t)
	f := newFTL(t, d, d.ChannelChips(0))
	// Write a recognizable working set, then churn others to force GC.
	for i := 0; i < f.LogicalPages(); i++ {
		f.Write(i)
	}
	for j := 0; j < 5; j++ {
		res := f.CollectBurst(0.5, 0)
		if res.Blocks == 0 {
			break
		}
		for i := 0; i < f.LogicalPages()/4; i++ {
			if _, err := f.Write(i); err != nil {
				break
			}
		}
	}
	// Every logical page must still resolve, and distinct LPNs must map to
	// distinct PPNs.
	seen := map[flash.Addr]int{}
	for i := 0; i < f.LogicalPages(); i++ {
		a, err := f.Read(i)
		if err != nil {
			t.Fatalf("lpn %d unreadable after GC: %v", i, err)
		}
		if prev, dup := seen[a]; dup {
			t.Fatalf("lpn %d and %d share physical page %v", prev, i, a)
		}
		seen[a] = i
	}
}

func TestCollectBurstReachesTarget(t *testing.T) {
	d := newDev(t)
	f := newFTL(t, d, d.ChannelChips(0))
	for i := 0; i < f.LogicalPages(); i++ {
		f.Write(i)
	}
	// Overwrite half to create stale pages.
	for i := 0; i < f.LogicalPages()/2; i++ {
		if _, err := f.Write(i); err != nil {
			f.CollectOnce()
		}
	}
	low := f.FreeRatio()
	res := f.CollectBurst(low+0.1, 0)
	if res.Blocks == 0 {
		t.Fatal("burst reclaimed nothing")
	}
	if f.FreeRatio() < low+0.1 && res.Blocks > 0 {
		// Acceptable only if no more victims existed.
		if _, ok := f.victim(); ok {
			t.Fatalf("burst stopped early: ratio %f, target %f", f.FreeRatio(), low+0.1)
		}
	}
	if res.Duration <= 0 {
		t.Fatal("burst duration not accounted")
	}
	if slices.Max(res.PerChannel) <= 0 {
		t.Fatal("burst per-channel accounting missing")
	}
}

// CollectBurst refills one PerChannel buffer owned by the FTL: a second
// burst that charges fewer channels reports Untouched for the channels
// only the first charged, and a burst allocates nothing.
func TestCollectBurstReusesPerChannel(t *testing.T) {
	d := newDev(t)
	f := newFTL(t, d, d.AllChips())
	churn := func() {
		for i := 0; i < f.LogicalPages()/2; i++ {
			if _, err := f.Write(i); err != nil {
				f.CollectOnce()
			}
		}
	}
	for i := 0; i < f.LogicalPages(); i++ {
		f.Write(i)
	}
	churn()
	first := slices.Clone(f.CollectBurst(f.FreeRatio()+0.2, 0).PerChannel)
	churn()
	second := f.CollectBurst(1, 1)
	if second.Blocks != 1 {
		t.Fatalf("second burst reclaimed %d blocks, want 1", second.Blocks)
	}
	charged, onlyFirst := 0, 0
	for ch, dur := range second.PerChannel {
		switch {
		case dur != Untouched:
			charged++
		case first[ch] != Untouched:
			onlyFirst++
		}
	}
	if charged != 1 || onlyFirst == 0 {
		t.Fatalf("first burst %v, second %v: want the second to charge one channel and leave Untouched at least one the first charged",
			first, second.PerChannel)
	}
	if allocs := testing.AllocsPerRun(10, func() { f.CollectBurst(1, 1) }); allocs != 0 {
		t.Errorf("a burst allocated %v times, want 0", allocs)
	}
}

func TestGCDurationPricing(t *testing.T) {
	d := newDev(t)
	f := newFTL(t, d, d.ChannelChips(0))
	p := d.Profile()
	if got := f.stepDuration(0); got != p.EraseBlock {
		t.Fatalf("0-move duration = %d, want erase %d", got, p.EraseBlock)
	}
	if got := f.stepDuration(3); got != 3*(p.ReadPage+p.ProgramPage)+p.EraseBlock {
		t.Fatalf("3-move duration = %d", got)
	}
}

func TestBorrowAndGiveBack(t *testing.T) {
	d := newDev(t)
	lender := newFTL(t, d, d.ChannelChips(0))
	borrower := newFTL(t, d, d.ChannelChips(1))
	blocks := lender.Borrow(4)
	if len(blocks) != 4 {
		t.Fatalf("borrowed %d blocks, want 4", len(blocks))
	}
	if lender.FreeBlocks() != 12 {
		t.Fatalf("lender free = %d, want 12", lender.FreeBlocks())
	}
	borrower.AcceptBorrowed(blocks)
	if borrower.FreeBlocks() != 16+4 {
		t.Fatalf("borrower free = %d, want 20", borrower.FreeBlocks())
	}
	returned, dur := borrower.VacateBorrowed()
	if len(returned) != 4 {
		t.Fatalf("returned %d blocks, want 4", len(returned))
	}
	if dur != 0 {
		t.Fatalf("unused borrowed blocks cost %d, want 0", dur)
	}
	lender.GiveBack(returned)
	if lender.FreeBlocks() != 16 {
		t.Fatalf("lender free after return = %d, want 16", lender.FreeBlocks())
	}
}

func TestBorrowedBlocksUsedWhenExhausted(t *testing.T) {
	d := newDev(t)
	borrower, err := NewFTL(d, []ChipRef{{Channel: 0, Chip: 0}}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	lender := newFTL(t, d, []ChipRef{{Channel: 0, Chip: 1}})
	borrower.AcceptBorrowed(lender.Borrow(4))
	// Write far past own capacity; borrowed space must absorb overflow.
	wrote := 0
	for i := 0; i < 3*borrower.LogicalPages(); i++ {
		if _, err := borrower.Write(i % borrower.LogicalPages()); err != nil {
			break
		}
		wrote++
	}
	if borrower.BorrowedInUse() == 0 {
		t.Fatal("borrowed blocks never used")
	}
	// Reclaim own space first (as the channel-group GC does), then vacate.
	borrower.CollectBurst(0.5, 0)
	returned, dur := borrower.VacateBorrowed()
	if borrower.BorrowedInUse() != 0 {
		t.Fatalf("%d borrowed blocks still in use after vacate", borrower.BorrowedInUse())
	}
	if len(returned) != 4 {
		t.Fatalf("returned %d blocks, want all 4", len(returned))
	}
	if dur == 0 {
		t.Fatal("vacating used blocks cost nothing")
	}
	for i := 0; i < borrower.LogicalPages(); i++ {
		if a, err := borrower.Read(i); err == nil {
			if a.Chip == 1 {
				for _, r := range returned {
					if r.Chip == (ChipRef{Channel: 0, Chip: 1}) && r.Block == a.Block {
						t.Fatalf("lpn %d still lives in returned block %v", i, r)
					}
				}
			}
		}
	}
}

// Property: after any interleaving of writes and GC, distinct mapped LPNs
// always point at distinct valid physical pages.
func TestMappingBijectionProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		d, err := NewDevice(sim.NewEngine(), testGeo(), flash.ProfilePSSD())
		if err != nil {
			return false
		}
		ftl, err := NewFTL(d, d.ChannelChips(0), 0.7)
		if err != nil {
			return false
		}
		for _, op := range ops {
			lpn := int(op) % ftl.LogicalPages()
			if _, err := ftl.Write(lpn); err != nil {
				ftl.CollectOnce()
			}
		}
		seen := map[int]bool{}
		geo := d.Geometry()
		for i := 0; i < ftl.LogicalPages(); i++ {
			a, err := ftl.Read(i)
			if errors.Is(err, ErrUnmapped) {
				continue
			}
			if err != nil {
				return false
			}
			ppn := geo.PPN(a)
			if seen[ppn] {
				return false
			}
			seen[ppn] = true
			if d.Array().BlockAt(a).State[a.Page] != flash.PageValid {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: free-block accounting matches the flash array's actual state.
func TestFreeBlockAccountingProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		d, err := NewDevice(sim.NewEngine(), testGeo(), flash.ProfilePSSD())
		if err != nil {
			return false
		}
		ftl, err := NewFTL(d, d.ChannelChips(0), 0.7)
		if err != nil {
			return false
		}
		for _, op := range ops {
			if op%5 == 0 {
				ftl.CollectOnce()
			} else if _, err := ftl.Write(int(op) % ftl.LogicalPages()); err != nil {
				ftl.CollectOnce()
			}
		}
		// Count blocks with WritePtr==0 (untouched) that are marked free.
		free := 0
		for _, ca := range ftl.chips {
			for b := 0; b < d.Geometry().BlocksPerChip; b++ {
				if ca.isFree[b] {
					addr := flash.Addr{Channel: ca.ref.Channel, Chip: ca.ref.Chip, Block: b}
					if d.Array().BlockAt(addr).WritePtr != 0 {
						return false // free-listed block contains data
					}
					free++
				}
			}
		}
		return free == ftl.FreeBlocks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDeviceTiming(t *testing.T) {
	eng := sim.NewEngine()
	d, err := NewDevice(eng, testGeo(), flash.ProfilePSSD())
	if err != nil {
		t.Fatal(err)
	}
	var readEnd, progEnd sim.Time
	_, readWindowEnd := d.TimeRead(flash.Addr{Channel: 1}, sim.EventFunc(func(end sim.Time) { readEnd = end }))
	d.TimeProgram(flash.Addr{Channel: 1}, sim.EventFunc(func(end sim.Time) { progEnd = end }))
	eng.Run()
	p := d.Profile()
	if readWindowEnd != readEnd {
		t.Fatalf("read window ends at %d, but done fired at %d", readWindowEnd, readEnd)
	}
	if readEnd != p.ReadPage {
		t.Fatalf("read end = %d, want %d", readEnd, p.ReadPage)
	}
	if progEnd != p.ReadPage+p.ProgramPage {
		t.Fatalf("program end = %d, want %d (serialized on channel)", progEnd, p.ReadPage+p.ProgramPage)
	}
}

func TestOccupyChannelBlocksIO(t *testing.T) {
	eng := sim.NewEngine()
	d, err := NewDevice(eng, testGeo(), flash.ProfilePSSD())
	if err != nil {
		t.Fatal(err)
	}
	d.OccupyChannel(0, 10*sim.Millisecond)
	start, _ := d.TimeRead(flash.Addr{Channel: 0}, nil)
	eng.Run()
	if start != 10*sim.Millisecond {
		t.Fatalf("read started at %d, want delayed to %d", start, 10*sim.Millisecond)
	}
}

func TestOccupyChannelOutOfRangePanics(t *testing.T) {
	d := newDev(t)
	defer func() {
		if recover() == nil {
			t.Error("no panic for bad channel")
		}
	}()
	d.OccupyChannel(99, 1)
}

func TestChannelsHelper(t *testing.T) {
	d := newDev(t)
	f := newFTL(t, d, append(d.ChannelChips(0), d.ChannelChips(3)...))
	chs := f.Channels()
	if len(chs) != 2 || chs[0] != 0 || chs[1] != 3 {
		t.Fatalf("channels = %v, want [0 3]", chs)
	}
}

// Property: under any interleaving of writes, GC, lending and vacating
// between two FTLs on one device, each FTL's dense reverse table agrees
// page for page with the map-based reverse mapping (the inverse of its
// forward map), and a block lent out never resolves in the lender's
// table, so the lender's GC can never relocate the borrower's pages.
func TestReverseTableMatchesMapModel(t *testing.T) {
	lentPages := 0 // valid pages checked in lent blocks, over all runs
	f := func(ops []uint16) bool {
		d, err := NewDevice(sim.NewEngine(), testGeo(), flash.ProfilePSSD())
		if err != nil {
			return false
		}
		lender, err := NewFTL(d, []ChipRef{{Channel: 0, Chip: 0}}, 0.7)
		if err != nil {
			return false
		}
		// A nearly full borrower runs out of its own blocks and spills
		// into the lent ones.
		borrower, err := NewFTL(d, []ChipRef{{Channel: 0, Chip: 1}}, 0.9)
		if err != nil {
			return false
		}
		geo := d.Geometry()
		lent := map[BlockRef]bool{}
		write := func(ftl *FTL, lpn, pages int) {
			for i := 0; i < pages; i++ {
				if _, err := ftl.Write((lpn + i) % ftl.LogicalPages()); err != nil {
					ftl.CollectOnce()
				}
			}
		}
		for _, op := range ops {
			lpn := int(op >> 3)
			switch op % 8 {
			case 0:
				write(lender, lpn, 4)
			case 1, 2, 3:
				write(borrower, lpn, 8)
			case 4:
				lender.CollectOnce()
			case 5:
				borrower.CollectOnce()
			case 6:
				blocks := lender.Borrow(2)
				borrower.AcceptBorrowed(blocks)
				for _, b := range blocks {
					lent[b] = true
				}
			case 7:
				returned, _ := borrower.VacateBorrowed()
				lender.GiveBack(returned)
				for _, b := range returned {
					delete(lent, b)
				}
			}
			for _, ftl := range []*FTL{lender, borrower} {
				model := map[int]int{}
				for l, ppn := range ftl.mapping {
					if ppn >= 0 {
						model[ppn] = l
					}
				}
				for ppn := 0; ppn < geo.TotalPages(); ppn++ {
					got, ok := ftl.lpnAt(ppn)
					want, wantOK := model[ppn]
					if ok != wantOK || (ok && got != want) {
						return false
					}
				}
			}
			for b := range lent {
				for p := 0; p < geo.PagesPerBlock; p++ {
					a := flash.Addr{Channel: b.Chip.Channel, Chip: b.Chip.Chip, Block: b.Block, Page: p}
					if d.Array().BlockAt(a).State[p] != flash.PageValid {
						continue
					}
					if _, ok := lender.lpnAt(geo.PPN(a)); ok {
						return false
					}
					lentPages++
				}
			}
		}
		return true
	}
	// A fixed run first: lend two blocks, then fill the borrower until it
	// writes into them, so the lent-block lookup is checked on every run
	// of the test, not only when the random inputs happen to reach it.
	spill := []uint16{6}
	for lpn := uint16(0); lpn < 64; lpn++ {
		spill = append(spill, lpn<<3|1)
	}
	if !f(spill) {
		t.Error("reverse tables disagree after the borrower spilled into lent blocks")
	}
	if lentPages == 0 {
		t.Fatal("the fixed run wrote no lent block")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
