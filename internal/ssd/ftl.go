package ssd

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"rackblox/internal/flash"
)

// BlockRef names one erase block inside a device.
type BlockRef struct {
	Chip  ChipRef
	Block int
}

// ErrNoSpace is returned when no free page can be allocated.
var ErrNoSpace = errors.New("ssd: no free pages available")

// gcReserveBlocks is the number of free blocks host writes may never
// consume, so garbage collection always has relocation space. One block is
// enough: a victim holds at most PagesPerBlock-1 valid pages and erasing it
// restores the reserve before the next reclaim.
const gcReserveBlocks = 1

// ErrUnmapped is returned when reading a never-written logical page.
var ErrUnmapped = errors.New("ssd: logical page not mapped")

// chipAlloc is the per-chip allocation state of an FTL.
type chipAlloc struct {
	ref    ChipRef
	free   []int  // free block indices, allocation pulls min-wear
	isFree []bool // parallel "is block free" flags
	active int    // block currently being programmed, -1 if none
}

// FTL is a page-mapped flash translation layer over a set of chips.
// Each vSSD owns one FTL ("each vSSD has its own address mapping table",
// §3.3). Chips are never shared between FTLs; software-isolated vSSDs
// share channels, not chips.
type FTL struct {
	dev   *Device
	chips []*chipAlloc
	// mapping and reverse address a page by its index among the pages
	// of the channels the FTL covers: the page's PPN with its channel
	// replaced by that channel's position in covered. The FTL covers its
	// own channels, where a channel group lends blocks, and the channel
	// of any block borrowed from elsewhere, so a vSSD's tables cover its
	// share of the device, not all of it.
	mapping []int32 // LPN -> page index, -1 when unmapped
	// reverse maps each page index to the LPN this FTL stored there, -1
	// for pages it does not map. It is private to the FTL, not an
	// out-of-band field of the flash page: a lender's victim scan can
	// land on a block it lent out, and there the lookup must fail rather
	// than hand the lender the borrower's pages.
	reverse []int32
	// covered lists the channels the page indexes span, in index order;
	// coverSlot maps a device channel to its position there, -1 when the
	// FTL does not cover it.
	covered      []int
	coverSlot    []int
	channels     []int // distinct channels of chips, in chip order
	nextChip     int   // round-robin allocation cursor
	logicalPages int

	// Borrowed free blocks from collocated vSSDs in the same channel
	// group (§3.5.2): usable for allocation, returned after group GC.
	borrowed      []BlockRef       // still-free borrowed blocks
	borrowedInUse map[BlockRef]int // borrowed blocks holding data -> chip placeholder

	hostWrites int64 // pages written by the host
	gcMoves    int64 // pages moved by garbage collection
	gcErases   int64 // blocks erased by garbage collection

	burst BurstResult // what CollectBurst returns, its buffer reused
}

// NewFTL builds an FTL over the given chips. utilization in (0,1) sets the
// exported logical space as a fraction of raw pages; the rest is
// over-provisioning that garbage collection feeds on.
func NewFTL(dev *Device, chips []ChipRef, utilization float64) (*FTL, error) {
	if len(chips) == 0 {
		return nil, errors.New("ssd: FTL needs at least one chip")
	}
	if utilization <= 0 || utilization >= 1 {
		return nil, fmt.Errorf("ssd: utilization %f outside (0,1)", utilization)
	}
	geo := dev.Geometry()
	if devicePages := geo.TotalPages(); devicePages > math.MaxInt32 {
		return nil, fmt.Errorf("ssd: %d device pages overflow the int32 page maps", devicePages)
	}
	f := &FTL{
		dev:           dev,
		borrowedInUse: make(map[BlockRef]int),
	}
	for _, c := range chips {
		if c.Channel < 0 || c.Channel >= geo.Channels || c.Chip < 0 || c.Chip >= geo.ChipsPerChannel {
			return nil, fmt.Errorf("ssd: chip %+v out of range", c)
		}
		dev.Array().Take(c.Channel, c.Chip)
		ca := &chipAlloc{ref: c, active: -1, isFree: make([]bool, geo.BlocksPerChip)}
		for b := 0; b < geo.BlocksPerChip; b++ {
			ca.free = append(ca.free, b)
			ca.isFree[b] = true
		}
		f.chips = append(f.chips, ca)
		if !slices.Contains(f.channels, c.Channel) {
			f.channels = append(f.channels, c.Channel)
		}
	}
	f.covered = slices.Clone(f.channels)
	f.coverSlot = make([]int, geo.Channels)
	for ch := range f.coverSlot {
		f.coverSlot[ch] = slices.Index(f.covered, ch)
	}
	f.reverse = unmapped(nil, len(f.covered)*channelPages(geo))
	raw := len(chips) * geo.BlocksPerChip * geo.PagesPerBlock
	f.logicalPages = int(float64(raw) * utilization)
	if f.logicalPages < 1 {
		return nil, errors.New("ssd: logical space rounds to zero pages")
	}
	f.mapping = unmapped(nil, f.logicalPages)
	return f, nil
}

// Device returns the device this FTL allocates on.
func (f *FTL) Device() *Device { return f.dev }

// Channels returns the distinct channels the FTL's chips live on, in
// chip order. The slice is computed once and shared: callers must not
// modify it.
func (f *FTL) Channels() []int { return f.channels }

// LogicalPages returns the exported logical page count.
func (f *FTL) LogicalPages() int { return f.logicalPages }

// TotalBlocks returns raw blocks owned (excluding borrowed).
func (f *FTL) TotalBlocks() int {
	return len(f.chips) * f.dev.Geometry().BlocksPerChip
}

// FreeBlocks returns the number of fully erased blocks available for
// allocation, including borrowed ones.
func (f *FTL) FreeBlocks() int {
	n := len(f.borrowed)
	for _, c := range f.chips {
		n += len(c.free)
	}
	return n
}

// FreeRatio returns FreeBlocks / TotalBlocks, the quantity compared against
// the paper's soft (35%) and regular (25%) GC thresholds.
func (f *FTL) FreeRatio() float64 {
	return float64(f.FreeBlocks()) / float64(f.TotalBlocks())
}

// HostWrites returns pages written by the host.
func (f *FTL) HostWrites() int64 { return f.hostWrites }

// GCErases returns blocks erased by GC.
func (f *FTL) GCErases() int64 { return f.gcErases }

// WriteAmplification returns (host + GC writes) / host writes.
func (f *FTL) WriteAmplification() float64 {
	if f.hostWrites == 0 {
		return 1
	}
	return float64(f.hostWrites+f.gcMoves) / float64(f.hostWrites)
}

// Read resolves a logical page to its physical address.
func (f *FTL) Read(lpn int) (flash.Addr, error) {
	if lpn < 0 || lpn >= f.logicalPages {
		return flash.Addr{}, fmt.Errorf("ssd: lpn %d out of range [0,%d)", lpn, f.logicalPages)
	}
	idx := f.mapping[lpn]
	if idx < 0 {
		return flash.Addr{}, ErrUnmapped
	}
	return f.addrAt(int(idx)), nil
}

// Write allocates a fresh physical page for the logical page, updating the
// mapping and invalidating any previous copy. Only state changes; timing
// is charged by the caller via Device.TimeProgram.
func (f *FTL) Write(lpn int) (flash.Addr, error) {
	if lpn < 0 || lpn >= f.logicalPages {
		return flash.Addr{}, fmt.Errorf("ssd: lpn %d out of range [0,%d)", lpn, f.logicalPages)
	}
	addr, err := f.allocPage(BlockRef{Block: -1}, false)
	if err != nil {
		return flash.Addr{}, err
	}
	f.commitMapping(lpn, addr)
	f.hostWrites++
	return addr, nil
}

// commitMapping points lpn at addr, invalidating the previous location.
func (f *FTL) commitMapping(lpn int, addr flash.Addr) {
	if old := f.mapping[lpn]; old >= 0 {
		if err := f.dev.Array().Invalidate(f.addrAt(int(old))); err != nil {
			panic(fmt.Sprintf("ssd: corrupt mapping for lpn %d: %v", lpn, err))
		}
		f.reverse[old] = -1
	}
	idx := f.pageIndex(addr)
	f.mapping[lpn] = int32(idx)
	f.reverse[idx] = int32(lpn)
}

// pageIndex returns the index of the page at addr, whose channel the FTL
// must cover.
func (f *FTL) pageIndex(addr flash.Addr) int {
	addr.Channel = f.coverSlot[addr.Channel]
	return f.dev.Geometry().PPN(addr)
}

// addrAt inverts pageIndex.
func (f *FTL) addrAt(idx int) flash.Addr {
	addr := f.dev.Geometry().AddrOf(idx)
	addr.Channel = f.covered[addr.Channel]
	return addr
}

// lpnAt returns the logical page this FTL stored at addr, false when it
// maps nothing there.
func (f *FTL) lpnAt(addr flash.Addr) (int, bool) {
	if f.coverSlot[addr.Channel] < 0 {
		return 0, false
	}
	lpn := f.reverse[f.pageIndex(addr)]
	return int(lpn), lpn >= 0
}

// unmapped appends n entries of -1 to s.
func unmapped(s []int32, n int) []int32 {
	s = slices.Grow(s, n)
	for range n {
		s = append(s, -1)
	}
	return s
}

// channelPages returns the page count of one channel.
func channelPages(geo flash.Geometry) int {
	return geo.ChipsPerChannel * geo.BlocksPerChip * geo.PagesPerBlock
}

// ReverseLen returns how many pages the reverse map covers (tests,
// introspection).
func (f *FTL) ReverseLen() int { return len(f.reverse) }

// allocPage returns the next free physical page, rotating across chips for
// parallelism and skipping the excluded block (the GC victim). forGC marks
// relocation writes, which may dip into the GC reserve.
func (f *FTL) allocPage(exclude BlockRef, forGC bool) (flash.Addr, error) {
	geo := f.dev.Geometry()
	for try := 0; try < len(f.chips); try++ {
		ca := f.chips[f.nextChip]
		f.nextChip = (f.nextChip + 1) % len(f.chips)
		addr, err := f.allocOnChip(ca, exclude, forGC)
		if err == nil {
			return addr, nil
		}
	}
	// Own chips exhausted: fall back to borrowed blocks.
	for len(f.borrowed) > 0 {
		if !forGC && f.FreeBlocks() <= gcReserveBlocks {
			break
		}
		br := f.borrowed[len(f.borrowed)-1]
		addr := flash.Addr{Channel: br.Chip.Channel, Chip: br.Chip.Chip, Block: br.Block}
		page, err := f.dev.Array().Program(addr)
		if err != nil {
			// Borrowed block unusable (worn out); drop it.
			f.borrowed = f.borrowed[:len(f.borrowed)-1]
			continue
		}
		addr.Page = page
		blk := f.dev.Array().BlockAt(addr)
		if blk.WritePtr >= geo.PagesPerBlock {
			f.borrowed = f.borrowed[:len(f.borrowed)-1]
			f.borrowedInUse[br] = 1
		} else if _, ok := f.borrowedInUse[br]; !ok {
			f.borrowedInUse[br] = 1
		}
		return addr, nil
	}
	return flash.Addr{}, ErrNoSpace
}

// allocOnChip programs the next page of the chip's active block, opening a
// new block (minimum wear first, the device-level wear leveling of §3.3)
// when the active block is full or missing.
func (f *FTL) allocOnChip(ca *chipAlloc, exclude BlockRef, forGC bool) (flash.Addr, error) {
	geo := f.dev.Geometry()
	arr := f.dev.Array()
	for {
		if ca.active < 0 {
			if !f.openBlock(ca, exclude, forGC) {
				return flash.Addr{}, ErrNoSpace
			}
		}
		addr := flash.Addr{Channel: ca.ref.Channel, Chip: ca.ref.Chip, Block: ca.active}
		page, err := arr.Program(addr)
		if err == nil {
			addr.Page = page
			if arr.BlockAt(addr).WritePtr >= geo.PagesPerBlock {
				ca.active = -1 // block now full; graduate it
			}
			return addr, nil
		}
		// Active block full or bad: retire it and retry with a new one.
		ca.active = -1
	}
}

// openBlock pops the least-worn free block of the chip into active.
// Host writes (forGC false) must leave the GC reserve untouched.
func (f *FTL) openBlock(ca *chipAlloc, exclude BlockRef, forGC bool) bool {
	if !forGC && f.FreeBlocks() <= gcReserveBlocks {
		return false
	}
	arr := f.dev.Array()
	best, bestWear := -1, int(^uint(0)>>1)
	for i, b := range ca.free {
		if exclude.Block == b && exclude.Chip == ca.ref {
			continue
		}
		blk := &arr.Chips[chipFlat(f.dev, ca.ref)].Blocks[b]
		if blk.Bad {
			continue
		}
		if blk.EraseCount < bestWear {
			bestWear = blk.EraseCount
			best = i
		}
	}
	if best < 0 {
		return false
	}
	b := ca.free[best]
	ca.free = append(ca.free[:best], ca.free[best+1:]...)
	ca.isFree[b] = false
	ca.active = b
	return true
}

func chipFlat(d *Device, c ChipRef) int {
	return c.Channel*d.Geometry().ChipsPerChannel + c.Chip
}

// Borrow removes up to n free blocks from this FTL's free lists and hands
// them to a collocated vSSD (§3.5.2 block borrowing). Fewer than n may be
// returned when free space is short.
func (f *FTL) Borrow(n int) []BlockRef {
	var out []BlockRef
	for _, ca := range f.chips {
		for n > 0 && len(ca.free) > 0 {
			b := ca.free[len(ca.free)-1]
			ca.free = ca.free[:len(ca.free)-1]
			ca.isFree[b] = false
			out = append(out, BlockRef{Chip: ca.ref, Block: b})
			n--
		}
		if n == 0 {
			break
		}
	}
	return out
}

// AcceptBorrowed adds foreign free blocks to the allocation pool. A
// block on a channel the FTL does not cover extends its page indexes
// over that channel.
func (f *FTL) AcceptBorrowed(blocks []BlockRef) {
	for _, br := range blocks {
		if ch := br.Chip.Channel; f.coverSlot[ch] < 0 {
			f.coverSlot[ch] = len(f.covered)
			f.covered = append(f.covered, ch)
			f.reverse = unmapped(f.reverse, channelPages(f.dev.Geometry()))
		}
	}
	f.borrowed = append(f.borrowed, blocks...)
}

// GiveBack restores previously lent blocks to this FTL's free lists. The
// blocks must already be erased.
func (f *FTL) GiveBack(blocks []BlockRef) {
	for _, br := range blocks {
		for _, ca := range f.chips {
			if ca.ref == br.Chip {
				ca.free = append(ca.free, br.Block)
				ca.isFree[br.Block] = true
				break
			}
		}
	}
}

// BorrowedInUse returns how many borrowed blocks currently hold data.
func (f *FTL) BorrowedInUse() int { return len(f.borrowedInUse) }

// Fingerprint hashes the FTL's state: its mapping and reverse map, its
// counters, its allocation cursor, its chips' free lists and active
// blocks, and the flash state of those chips' blocks. Two FTLs that
// replayed the same writes have equal fingerprints, so tests compare
// whole devices with it.
func (f *FTL) Fingerprint() uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis, a word at a time
	mix := func(v int) { h = (h ^ uint64(v)) * 1099511628211 }
	ints := func(s []int32) {
		mix(len(s))
		for _, x := range s {
			mix(int(x))
		}
	}
	ints(f.mapping)
	ints(f.reverse)
	mix(int(f.hostWrites))
	mix(int(f.gcMoves))
	mix(int(f.gcErases))
	mix(f.nextChip)
	arr := f.dev.Array()
	for _, ca := range f.chips {
		mix(ca.active)
		mix(len(ca.free))
		for _, b := range ca.free {
			mix(b)
		}
		for _, blk := range arr.Chips[chipFlat(f.dev, ca.ref)].Blocks {
			mix(blk.WritePtr)
			mix(blk.Valid)
			mix(blk.EraseCount)
			for _, st := range blk.State {
				mix(int(st))
			}
		}
	}
	return h
}
