package flash

import (
	"errors"
	"testing"
	"testing/quick"
)

func tinyGeo() Geometry {
	return Geometry{Channels: 2, ChipsPerChannel: 2, BlocksPerChip: 4, PagesPerBlock: 8, PageSize: 4096}
}

// experimentGeo is the geometry of core.DefaultConfig, which every
// experiment runs on.
func experimentGeo() Geometry {
	return Geometry{Channels: 8, ChipsPerChannel: 4, BlocksPerChip: 16, PagesPerBlock: 32, PageSize: 4096}
}

func TestGeometryCounts(t *testing.T) {
	g := tinyGeo()
	if g.TotalChips() != 4 {
		t.Fatalf("chips = %d, want 4", g.TotalChips())
	}
	if g.TotalBlocks() != 16 {
		t.Fatalf("blocks = %d, want 16", g.TotalBlocks())
	}
	if g.TotalPages() != 128 {
		t.Fatalf("pages = %d, want 128", g.TotalPages())
	}
	if g.Capacity() != 128*4096 {
		t.Fatalf("capacity = %d", g.Capacity())
	}
}

func TestGeometryValidate(t *testing.T) {
	if err := experimentGeo().Validate(); err != nil {
		t.Fatalf("experiment geometry invalid: %v", err)
	}
	bad := tinyGeo()
	bad.Channels = 0
	if bad.Validate() == nil {
		t.Fatal("zero channels accepted")
	}
}

func TestPPNRoundTripProperty(t *testing.T) {
	g := experimentGeo()
	f := func(ch, chip, blk, pg uint8) bool {
		a := Addr{
			Channel: int(ch) % g.Channels,
			Chip:    int(chip) % g.ChipsPerChannel,
			Block:   int(blk) % g.BlocksPerChip,
			Page:    int(pg) % g.PagesPerBlock,
		}
		return g.AddrOf(g.PPN(a)) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPPNDense(t *testing.T) {
	g := tinyGeo()
	seen := make([]bool, g.TotalPages())
	for ch := 0; ch < g.Channels; ch++ {
		for c := 0; c < g.ChipsPerChannel; c++ {
			for b := 0; b < g.BlocksPerChip; b++ {
				for p := 0; p < g.PagesPerBlock; p++ {
					n := g.PPN(Addr{ch, c, b, p})
					if n < 0 || n >= len(seen) || seen[n] {
						t.Fatalf("PPN not a bijection at %v -> %d", Addr{ch, c, b, p}, n)
					}
					seen[n] = true
				}
			}
		}
	}
}

func TestProfiles(t *testing.T) {
	o, i, p := ProfileOptane(), ProfileIntelDC(), ProfilePSSD()
	if !(o.ReadPage < i.ReadPage && i.ReadPage < p.ReadPage) {
		t.Fatal("profile read latency ordering broken (Optane < IntelDC < P-SSD)")
	}
	if !(o.ProgramPage < i.ProgramPage && i.ProgramPage < p.ProgramPage) {
		t.Fatal("profile program latency ordering broken")
	}
	for _, name := range []string{"Optane", "IntelDC", "P-SSD"} {
		if _, err := ProfileByName(name); err != nil {
			t.Errorf("ProfileByName(%q): %v", name, err)
		}
	}
	if _, err := ProfileByName("floppy"); err == nil {
		t.Error("unknown profile accepted")
	}
}

// newTestArray builds a tiny array with every chip taken.
func newTestArray(t *testing.T) *Array {
	t.Helper()
	a, err := NewArray(tinyGeo(), ProfilePSSD())
	if err != nil {
		t.Fatal(err)
	}
	for ch := 0; ch < a.Geo.Channels; ch++ {
		for c := 0; c < a.Geo.ChipsPerChannel; c++ {
			a.Take(ch, c)
		}
	}
	return a
}

// An untaken chip holds no blocks or page states; taking it allocates
// them once, and the wear averages count the blocks of untaken chips as
// never erased.
func TestUntakenChipsHoldNoState(t *testing.T) {
	a, err := NewArray(tinyGeo(), ProfilePSSD())
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range a.Chips {
		if c.Blocks != nil {
			t.Fatalf("chip %d of a new array holds %d blocks", i, len(c.Blocks))
		}
	}
	if a.AvgEraseCount() != 0 || a.MaxEraseCount() != 0 {
		t.Fatal("an array of untaken chips has wear")
	}
	taken := Addr{Channel: 1, Chip: 0}
	a.Take(taken.Channel, taken.Chip)
	first := &a.BlockAt(taken).State[0]
	a.Take(taken.Channel, taken.Chip)
	if &a.BlockAt(taken).State[0] != first {
		t.Fatal("taking a taken chip reallocated its state")
	}
	for i, c := range a.Chips {
		if want := i == a.chipIndex(taken.Channel, taken.Chip); (c.Blocks != nil) != want {
			t.Fatalf("chip %d holds state: %v, want %v", i, c.Blocks != nil, want)
		}
	}
	blocks := a.Chips[a.chipIndex(taken.Channel, taken.Chip)].Blocks
	if len(blocks) != a.Geo.BlocksPerChip {
		t.Fatalf("taken chip holds %d blocks, want %d", len(blocks), a.Geo.BlocksPerChip)
	}
	for b := range blocks {
		if len(blocks[b].State) != a.Geo.PagesPerBlock || cap(blocks[b].State) != a.Geo.PagesPerBlock {
			t.Fatalf("block %d page states len %d cap %d, want %d", b, len(blocks[b].State), cap(blocks[b].State), a.Geo.PagesPerBlock)
		}
	}
	a.Erase(taken)
	a.Erase(taken)
	a.Erase(Addr{Channel: taken.Channel, Chip: taken.Chip, Block: 1})
	if a.MaxEraseCount() != 2 {
		t.Fatalf("max erase = %d, want 2", a.MaxEraseCount())
	}
	if got, want := a.AvgEraseCount(), 3.0/float64(a.Geo.TotalBlocks()); got != want {
		t.Fatalf("avg erase = %f, want %f over every block of the array", got, want)
	}
}

func TestProgramSequential(t *testing.T) {
	a := newTestArray(t)
	addr := Addr{Channel: 0, Chip: 0, Block: 0}
	for want := 0; want < a.Geo.PagesPerBlock; want++ {
		p, err := a.Program(addr)
		if err != nil {
			t.Fatalf("program %d: %v", want, err)
		}
		if p != want {
			t.Fatalf("program returned page %d, want %d", p, want)
		}
	}
	if _, err := a.Program(addr); !errors.Is(err, ErrBlockFull) {
		t.Fatalf("overfull program err = %v, want ErrBlockFull", err)
	}
	if b := a.BlockAt(addr); b.Valid != a.Geo.PagesPerBlock {
		t.Fatalf("valid = %d, want %d", b.Valid, a.Geo.PagesPerBlock)
	}
}

func TestInvalidate(t *testing.T) {
	a := newTestArray(t)
	addr := Addr{Block: 1}
	p, _ := a.Program(addr)
	addr.Page = p
	if err := a.Invalidate(addr); err != nil {
		t.Fatalf("invalidate: %v", err)
	}
	if a.BlockAt(addr).Valid != 0 {
		t.Fatal("valid count not decremented")
	}
	if err := a.Invalidate(addr); err == nil {
		t.Fatal("double invalidate accepted")
	}
	if err := a.Invalidate(Addr{Block: 1, Page: 999}); err == nil {
		t.Fatal("out-of-range page accepted")
	}
}

func TestEraseResetsBlock(t *testing.T) {
	a := newTestArray(t)
	addr := Addr{Block: 2}
	for i := 0; i < 4; i++ {
		a.Program(addr)
	}
	if err := a.Erase(addr); err != nil {
		t.Fatalf("erase: %v", err)
	}
	b := a.BlockAt(addr)
	if b.WritePtr != 0 || b.Valid != 0 || b.EraseCount != 1 {
		t.Fatalf("block after erase = %+v", b)
	}
	for _, s := range b.State {
		if s != PageFree {
			t.Fatal("page not freed by erase")
		}
	}
	if a.Erases() != 1 {
		t.Fatalf("array erases = %d, want 1", a.Erases())
	}
}

func TestEnduranceRetiresBlock(t *testing.T) {
	geo := tinyGeo()
	prof := ProfilePSSD()
	prof.Endurance = 3
	a, err := NewArray(geo, prof)
	if err != nil {
		t.Fatal(err)
	}
	a.Take(0, 0)
	addr := Addr{}
	for i := 0; i < 2; i++ {
		if err := a.Erase(addr); err != nil {
			t.Fatalf("erase %d: %v", i, err)
		}
	}
	if err := a.Erase(addr); !errors.Is(err, ErrWornOut) {
		t.Fatalf("third erase err = %v, want ErrWornOut", err)
	}
	if !a.BlockAt(addr).Bad {
		t.Fatal("block not marked bad at endurance")
	}
	if _, err := a.Program(addr); !errors.Is(err, ErrWornOut) {
		t.Fatal("program on bad block accepted")
	}
	if err := a.Erase(addr); !errors.Is(err, ErrWornOut) {
		t.Fatal("erase on bad block accepted")
	}
}

func TestWearAccounting(t *testing.T) {
	a := newTestArray(t)
	if a.AvgEraseCount() != 0 || a.MaxEraseCount() != 0 {
		t.Fatal("fresh array has wear")
	}
	a.Erase(Addr{Block: 0})
	a.Erase(Addr{Block: 0})
	a.Erase(Addr{Block: 1})
	if a.MaxEraseCount() != 2 {
		t.Fatalf("max erase = %d, want 2", a.MaxEraseCount())
	}
	want := 3.0 / float64(a.Geo.TotalBlocks())
	if got := a.AvgEraseCount(); got != want {
		t.Fatalf("avg erase = %f, want %f", got, want)
	}
}

func TestProgramsCounter(t *testing.T) {
	a := newTestArray(t)
	a.Program(Addr{})
	a.Program(Addr{})
	a.Program(Addr{Block: 1})
	if a.Programs() != 3 {
		t.Fatalf("programs = %d, want 3", a.Programs())
	}
}

// Property: valid-page count per block always equals programs minus
// invalidations and is bounded by pages-per-block.
func TestValidCountInvariantProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		a, err := NewArray(tinyGeo(), ProfilePSSD())
		if err != nil {
			return false
		}
		a.Take(0, 0)
		addr := Addr{}
		var valids []int // pages currently valid
		for _, op := range ops {
			switch op % 3 {
			case 0, 1: // program
				if p, err := a.Program(addr); err == nil {
					valids = append(valids, p)
				}
			case 2: // invalidate one valid page
				if len(valids) > 0 {
					pg := valids[len(valids)-1]
					valids = valids[:len(valids)-1]
					if a.Invalidate(Addr{Page: pg}) != nil {
						return false
					}
				}
			}
			b := a.BlockAt(addr)
			if b.Valid != len(valids) || b.Valid > a.Geo.PagesPerBlock {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPageStateString(t *testing.T) {
	if PageFree.String() != "free" || PageValid.String() != "valid" || PageInvalid.String() != "invalid" {
		t.Fatal("state strings wrong")
	}
	if PageState(9).String() == "" {
		t.Fatal("unknown state has empty string")
	}
}
