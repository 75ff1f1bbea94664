package core

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"rackblox/internal/flash"
	"rackblox/internal/ssd"
	"rackblox/internal/workload"
)

// deviceState is what building a rack's devices and generators leaves
// behind: every FTL's fingerprint in instance order (a software-isolated
// instance's peer right after it), each server's flash counters, each
// volume's first requests, and the next draws of the rack's own stream.
type deviceState struct {
	ftls             []uint64
	programs, erases []int64
	ops              []workload.Op
	next             [2]int64
}

// preconditionedAt builds cfg's rack with GOMAXPROCS set to procs and
// returns its device state.
func preconditionedAt(t *testing.T, cfg Config, procs int) deviceState {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	r, err := NewRack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var s deviceState
	for _, inst := range r.insts {
		s.ftls = append(s.ftls, inst.v.FTL.Fingerprint())
		if inst.peer != nil {
			s.ftls = append(s.ftls, inst.peer.FTL.Fingerprint())
		}
	}
	for _, srv := range r.servers {
		s.programs = append(s.programs, srv.dev.Array().Programs())
		s.erases = append(s.erases, srv.dev.Array().Erases())
	}
	for _, v := range r.volumes() {
		for range 3 {
			s.ops = append(s.ops, v.gen.Next())
		}
	}
	s.next = [2]int64{r.rng.Int63n(1 << 62), r.rng.Int63n(1 << 62)}
	return s
}

// TestPreconditionSameOnAnyCPUCount: preconditioning runs one pool task
// per server and the workload generators one per volume, so the
// devices, the generators and the rack's stream must come out the same
// whether the caller runs every task (GOMAXPROCS 1) or a worker runs
// some (GOMAXPROCS 2). The racks cover a software-isolated pair sharing
// each channel set, and compact RS(4,2) groups with several holders on
// each server.
func TestPreconditionSameOnAnyCPUCount(t *testing.T) {
	swIso := DefaultConfig()
	swIso.SoftwareIsolated = true
	rs := ecConfig()
	rs.Racks = 2
	rs.Placement = PlacementCompact
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"replicated", DefaultConfig()},
		{"software-isolated", swIso},
		{"rs-compact", rs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			one := preconditionedAt(t, tc.cfg, 1)
			two := preconditionedAt(t, tc.cfg, 2)
			if len(one.ftls) != len(two.ftls) {
				t.Fatalf("%d FTLs at GOMAXPROCS 1, %d at 2", len(one.ftls), len(two.ftls))
			}
			for i := range one.ftls {
				if one.ftls[i] != two.ftls[i] {
					t.Errorf("FTL %d: fingerprint %#x at GOMAXPROCS 1, %#x at 2", i, one.ftls[i], two.ftls[i])
				}
			}
			for i := range one.programs {
				if one.programs[i] != two.programs[i] || one.erases[i] != two.erases[i] {
					t.Errorf("server %d: %d programs and %d erases at GOMAXPROCS 1, %d and %d at 2",
						i, one.programs[i], one.erases[i], two.programs[i], two.erases[i])
				}
			}
			if !slices.Equal(one.ops, two.ops) {
				t.Errorf("volume requests %v at GOMAXPROCS 1, %v at 2", one.ops, two.ops)
			}
			if one.next != two.next {
				t.Errorf("rack stream draws %v at GOMAXPROCS 1, %v at 2", one.next, two.next)
			}
		})
	}
}

// TestNewRackReturnsPreconditionError: configurations Validate accepts
// can still leave a vSSD too small for its key space. NewRack must
// return the failed write, naming the lowest server and its vSSD,
// rather than retry it forever. It runs under a deadline so that a hang
// fails the test instead of the package.
func TestNewRackReturnsPreconditionError(t *testing.T) {
	tiny := DefaultConfig()
	tiny.Geometry = flash.Geometry{Channels: 8, ChipsPerChannel: 1, BlocksPerChip: 4, PagesPerBlock: 8, PageSize: 4096}
	full := DefaultConfig()
	full.Utilization = 0.995
	full.KeyspaceFrac = 1
	for _, tc := range []struct {
		name string
		cfg  Config
		want func(error) bool
	}{
		// 48 logical pages per vSSD, but the key space is at least 64.
		{"keys-beyond-logical-pages", tiny, func(err error) bool {
			return strings.Contains(err.Error(), "out of range")
		}},
		// 4,075 keys, but only 4,064 pages above the GC reserve.
		{"keys-beyond-gc-reserve", full, func(err error) bool {
			return errors.Is(err, ssd.ErrNoSpace)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := NewRack(tc.cfg)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("NewRack succeeded")
				}
				if !tc.want(err) || !strings.Contains(err.Error(), "vSSD 100 on server 0:") {
					t.Fatalf("NewRack: %v; want the write error of vSSD 100 on server 0", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("NewRack did not return within 10 s")
			}
		})
	}
}
