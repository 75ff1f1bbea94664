package ec

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestRepairReintegrationByteIdentity is the data-plane half of the
// recovery-lifecycle property (its simulator half lives in
// internal/core TestRecoveryLifecycleProperty): randomized over seeds,
// RS parameters, and placement modes, a set of server crashes or a
// whole-rack crash (the FailServer/FailRack scenario events) followed by full chunk repair and re-integration leaves every
// stripe readable without reconstruction — the post-repair holder map
// has a live chunk for each position — and byte-identical to the
// original payload.
func TestRepairReintegrationByteIdentity(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		k := 1 + rng.Intn(5)
		m := 1 + rng.Intn(3)
		spec := Spec{K: k, M: m}
		width := spec.Width()
		mode := PlaceCompact
		racks := 1
		if rng.Intn(2) == 0 {
			mode = PlaceSpread
			// Spread needs ceil(width/m) racks to keep <= m chunks each.
			racks = (width + m - 1) / m
			if extra := rng.Intn(2); extra == 1 {
				racks++
			}
		}
		placer := Placer{
			Servers: width + rng.Intn(3), Racks: racks,
			Width: width, Mode: mode, MaxPerRack: m,
		}
		name := fmt.Sprintf("trial %d RS(%d,%d) %s racks=%d", trial, k, m, mode, racks)

		codec, err := NewCodec(spec)
		if err != nil {
			t.Fatalf("%s: NewCodec: %v", name, err)
		}
		striper := Striper{Spec: spec}
		servers := placer.Place(rng.Intn(4))

		// Build the original payload and the per-holder chunk store:
		// holder h stores its chunk of stripe s at local page s.
		stripes := 3 + rng.Intn(6)
		chunkLen := 1 + rng.Intn(64)
		payload := make([]byte, stripes*k*chunkLen)
		rng.Read(payload)
		store := make([]map[int][]byte, width) // holder -> stripe -> chunk
		for h := range store {
			store[h] = make(map[int][]byte)
		}
		for s := 0; s < stripes; s++ {
			shards := make([][]byte, width)
			for p := 0; p < k; p++ {
				off := (s*k + p) * chunkLen
				shards[p] = append([]byte(nil), payload[off:off+chunkLen]...)
			}
			parity, err := codec.Encode(shards[:k])
			if err != nil {
				t.Fatalf("%s: Encode stripe %d: %v", name, s, err)
			}
			copy(shards[k:], parity)
			for c, h := range striper.Holders(s) {
				store[h][s] = shards[c]
			}
		}

		// Fail a within-budget spec: either up to m distinct servers, or
		// (spread mode) one whole rack.
		failedServer := make(map[int]bool)
		if mode == PlaceSpread && rng.Intn(2) == 0 {
			rack := rng.Intn(racks)
			for s := rack * placer.Servers; s < (rack+1)*placer.Servers; s++ {
				failedServer[s] = true
			}
		} else {
			for n := 1 + rng.Intn(m); n > 0; n-- {
				failedServer[servers[rng.Intn(width)]] = true
			}
		}
		replacement := make(map[int]int) // lost holder -> adopting holder
		for h, srv := range servers {
			if !failedServer[srv] {
				continue
			}
			store[h] = nil // chunks lost with the server
			for d := 1; d < width; d++ {
				a := (h + d) % width
				if !failedServer[servers[a]] {
					replacement[h] = a
					break
				}
			}
		}

		// Repair: rebuild every lost holder's chunks from any k
		// survivors and land them on its adopter, keyed by the lost
		// holder (the sim's replacement registration) — two holders may
		// share one adopter without their chunks colliding.
		rebuilt := make([]map[int][]byte, width) // lost holder -> stripe -> chunk
		for h := range replacement {
			rebuilt[h] = make(map[int][]byte)
			for s := 0; s < stripes; s++ {
				shards := make([][]byte, width)
				for c, hh := range striper.Holders(s) {
					if store[hh] != nil {
						shards[c] = append([]byte(nil), store[hh][s]...)
					}
				}
				if err := codec.Reconstruct(shards); err != nil {
					t.Fatalf("%s: repair of holder %d stripe %d: %v", name, h, s, err)
				}
				for c, hh := range striper.Holders(s) {
					if hh == h {
						rebuilt[h][s] = shards[c]
					}
				}
			}
		}

		// Post-repair reads: resolve each data chunk through the
		// replacement map; every read must find a live chunk directly
		// (non-degraded) and the payload must round-trip byte-identically.
		for s := 0; s < stripes; s++ {
			for p := 0; p < k; p++ {
				h := striper.DataHolder(s, p)
				var got []byte
				if store[h] != nil {
					got = store[h][s]
				} else {
					if _, ok := replacement[h]; !ok {
						t.Fatalf("%s: holder %d lost with no replacement", name, h)
					}
					got = rebuilt[h][s]
				}
				if got == nil {
					t.Fatalf("%s: stripe %d pos %d: no chunk at post-repair holder (degraded read)", name, s, p)
				}
				off := (s*k + p) * chunkLen
				if !bytes.Equal(got, payload[off:off+chunkLen]) {
					t.Fatalf("%s: stripe %d pos %d: repaired chunk differs from original payload", name, s, p)
				}
			}
		}
	}
}
