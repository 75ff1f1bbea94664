// Package flash models NAND flash geometry and timing: packages, chips,
// blocks and pages, with per-block erase counts and device latency
// profiles. It is the lowest substrate of the SSD simulator; the FTL and
// garbage collection live one level up in internal/ssd.
package flash

import (
	"errors"
	"fmt"
)

// PageState tracks the lifecycle of one flash page.
type PageState uint8

const (
	// PageFree is an erased page ready to be programmed.
	PageFree PageState = iota
	// PageValid holds live data.
	PageValid
	// PageInvalid holds stale data awaiting garbage collection.
	PageInvalid
)

func (s PageState) String() string {
	switch s {
	case PageFree:
		return "free"
	case PageValid:
		return "valid"
	case PageInvalid:
		return "invalid"
	default:
		return fmt.Sprintf("PageState(%d)", uint8(s))
	}
}

// Geometry describes the physical layout of one SSD.
type Geometry struct {
	// Channels is the number of independent flash channels.
	Channels int
	// ChipsPerChannel is the number of flash chips sharing one channel.
	ChipsPerChannel int
	// BlocksPerChip is the number of erase blocks in one chip.
	BlocksPerChip int
	// PagesPerBlock is the number of programmable pages in one block.
	PagesPerBlock int
	// PageSize is the page payload in bytes (4 KiB typical).
	PageSize int
}

// Validate reports whether every dimension is positive.
func (g Geometry) Validate() error {
	if g.Channels <= 0 || g.ChipsPerChannel <= 0 || g.BlocksPerChip <= 0 ||
		g.PagesPerBlock <= 0 || g.PageSize <= 0 {
		return fmt.Errorf("flash: invalid geometry %+v", g)
	}
	return nil
}

// TotalChips returns the chip count.
func (g Geometry) TotalChips() int { return g.Channels * g.ChipsPerChannel }

// TotalBlocks returns the block count.
func (g Geometry) TotalBlocks() int { return g.TotalChips() * g.BlocksPerChip }

// TotalPages returns the page count.
func (g Geometry) TotalPages() int { return g.TotalBlocks() * g.PagesPerBlock }

// Capacity returns the raw byte capacity.
func (g Geometry) Capacity() int64 {
	return int64(g.TotalPages()) * int64(g.PageSize)
}

// Profile holds the timing of one device class. All values are virtual
// nanoseconds. The three profiles mirror §4.5.3 of the paper.
type Profile struct {
	Name string
	// ReadPage is the latency of one page read.
	ReadPage int64
	// ProgramPage is the latency of one page program.
	ProgramPage int64
	// EraseBlock is the latency of one block erase.
	EraseBlock int64
	// Endurance is the number of erases a block tolerates before wearing out.
	Endurance int
}

// Device profiles from fastest to slowest (§4.5.3): Intel Optane,
// Intel DC NVMe, and the programmable SSD used for the main evaluation.
func ProfileOptane() Profile {
	return Profile{Name: "Optane", ReadPage: 10_000, ProgramPage: 15_000, EraseBlock: 150_000, Endurance: 60_000}
}

func ProfileIntelDC() Profile {
	return Profile{Name: "IntelDC", ReadPage: 80_000, ProgramPage: 220_000, EraseBlock: 3_000_000, Endurance: 30_000}
}

func ProfilePSSD() Profile {
	return Profile{Name: "P-SSD", ReadPage: 95_000, ProgramPage: 350_000, EraseBlock: 5_000_000, Endurance: 30_000}
}

// ProfileByName resolves a profile by its display name.
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "Optane":
		return ProfileOptane(), nil
	case "IntelDC":
		return ProfileIntelDC(), nil
	case "P-SSD", "PSSD":
		return ProfilePSSD(), nil
	}
	return Profile{}, fmt.Errorf("flash: unknown profile %q", name)
}

// Addr identifies a physical page.
type Addr struct {
	Channel int
	Chip    int
	Block   int
	Page    int
}

// PPN flattens an address into a physical page number.
func (g Geometry) PPN(a Addr) int {
	return ((a.Channel*g.ChipsPerChannel+a.Chip)*g.BlocksPerChip+a.Block)*g.PagesPerBlock + a.Page
}

// AddrOf inverts PPN.
func (g Geometry) AddrOf(ppn int) Addr {
	p := ppn % g.PagesPerBlock
	ppn /= g.PagesPerBlock
	b := ppn % g.BlocksPerChip
	ppn /= g.BlocksPerChip
	c := ppn % g.ChipsPerChannel
	ch := ppn / g.ChipsPerChannel
	return Addr{Channel: ch, Chip: c, Block: b, Page: p}
}

// Block is one erase block: page states plus wear accounting. A chip's
// blocks exist once an FTL takes the chip (Array.Take).
type Block struct {
	// State holds the per-page lifecycle, capped at the block's own
	// pages of its chip's one page-state allocation.
	State []PageState
	// WritePtr is the next free page index; pages program sequentially.
	WritePtr int
	// Valid counts pages in PageValid.
	Valid int
	// EraseCount is the block's total erases to date (wear).
	EraseCount int
	// Bad marks the block as retired (bad-block management).
	Bad bool
}

// ErrWornOut is returned when programming or erasing a retired block.
var ErrWornOut = errors.New("flash: block is marked bad")

// ErrBlockFull is returned when programming past the last page.
var ErrBlockFull = errors.New("flash: block has no free pages")

// ErrNotErased is returned when programming a non-free page.
var ErrNotErased = errors.New("flash: page is not erased")

// Chip is an independently addressable flash die. Blocks is nil until
// the chip is taken.
type Chip struct {
	Blocks []Block
}

// Array is the full flash array of one SSD.
type Array struct {
	Geo     Geometry
	Profile Profile
	Chips   []Chip
	// erases counts total erase operations for wear statistics.
	erases int64
	// programs counts total page programs (physical write amplification
	// numerator).
	programs int64
}

// NewArray builds an erased array. Its chips hold no state until taken:
// a device carved into fewer vSSDs than it has chips allocates the
// blocks and page states of the chips its FTLs use, not of all of them.
func NewArray(geo Geometry, prof Profile) (*Array, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	return &Array{Geo: geo, Profile: prof, Chips: make([]Chip, geo.TotalChips())}, nil
}

// Take allocates the erased blocks of a chip that holds no state yet;
// an FTL takes each of its chips before it addresses them. Taking a
// taken chip changes nothing.
func (a *Array) Take(channel, chip int) {
	c := &a.Chips[a.chipIndex(channel, chip)]
	if c.Blocks != nil {
		return
	}
	// One allocation holds the chip's page states; each block's slice is
	// capped at its own pages, so no append can run into the next.
	ppb := a.Geo.PagesPerBlock
	states := make([]PageState, a.Geo.BlocksPerChip*ppb)
	c.Blocks = make([]Block, a.Geo.BlocksPerChip)
	for b := range c.Blocks {
		c.Blocks[b].State = states[b*ppb : (b+1)*ppb : (b+1)*ppb]
	}
}

// chipIndex maps (channel, chip) to the flat chip slice.
func (a *Array) chipIndex(channel, chip int) int {
	return channel*a.Geo.ChipsPerChannel + chip
}

// BlockAt returns the block at the address (page index ignored).
func (a *Array) BlockAt(addr Addr) *Block {
	return &a.Chips[a.chipIndex(addr.Channel, addr.Chip)].Blocks[addr.Block]
}

// Program marks the next free page of the block valid and returns its page
// index. The flash array tracks state only; timing is the caller's job.
func (a *Array) Program(addr Addr) (page int, err error) {
	b := a.BlockAt(addr)
	if b.Bad {
		return 0, ErrWornOut
	}
	if b.WritePtr >= a.Geo.PagesPerBlock {
		return 0, ErrBlockFull
	}
	p := b.WritePtr
	if b.State[p] != PageFree {
		return 0, ErrNotErased
	}
	b.State[p] = PageValid
	b.WritePtr++
	b.Valid++
	a.programs++
	return p, nil
}

// Invalidate marks a previously valid page stale.
func (a *Array) Invalidate(addr Addr) error {
	b := a.BlockAt(addr)
	if addr.Page < 0 || addr.Page >= a.Geo.PagesPerBlock {
		return fmt.Errorf("flash: page %d out of range", addr.Page)
	}
	if b.State[addr.Page] != PageValid {
		return fmt.Errorf("flash: invalidate non-valid page %v (%s)", addr, b.State[addr.Page])
	}
	b.State[addr.Page] = PageInvalid
	b.Valid--
	return nil
}

// Erase resets every page of the block to free and bumps wear. A block
// that exceeds its endurance is marked bad and ErrWornOut is returned.
func (a *Array) Erase(addr Addr) error {
	b := a.BlockAt(addr)
	if b.Bad {
		return ErrWornOut
	}
	for i := range b.State {
		b.State[i] = PageFree
	}
	b.WritePtr = 0
	b.Valid = 0
	b.EraseCount++
	a.erases++
	if a.Profile.Endurance > 0 && b.EraseCount >= a.Profile.Endurance {
		b.Bad = true
		return ErrWornOut
	}
	return nil
}

// Erases returns the total erase operations performed on the array.
func (a *Array) Erases() int64 { return a.erases }

// Programs returns the total page programs performed on the array.
func (a *Array) Programs() int64 { return a.programs }

// AvgEraseCount returns the mean per-block erase count, the paper's wear
// metric φ (§3.6). The blocks of untaken chips count as never erased.
func (a *Array) AvgEraseCount() float64 {
	total := 0
	for i := range a.Chips {
		for b := range a.Chips[i].Blocks {
			total += a.Chips[i].Blocks[b].EraseCount
		}
	}
	return float64(total) / float64(a.Geo.TotalBlocks())
}

// MaxEraseCount returns the largest per-block erase count, 0 for the
// never-erased blocks of untaken chips.
func (a *Array) MaxEraseCount() int {
	max := 0
	for i := range a.Chips {
		for b := range a.Chips[i].Blocks {
			if c := a.Chips[i].Blocks[b].EraseCount; c > max {
				max = c
			}
		}
	}
	return max
}
