package ec

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randShards builds k deterministic pseudo-random data shards.
func randShards(rng *rand.Rand, k, size int) [][]byte {
	out := make([][]byte, k)
	for i := range out {
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}

// TestDegradedReconstruct kills up to m chunk holders in every spec and
// asserts reads of the surviving stripe still return the original data.
func TestDegradedReconstruct(t *testing.T) {
	cases := []struct {
		k, m int
		kill [][]int // shard-index sets to erase, each with <= m members
	}{
		{k: 2, m: 1, kill: [][]int{{0}, {1}, {2}}},
		{k: 4, m: 2, kill: [][]int{{0}, {5}, {0, 1}, {0, 4}, {4, 5}, {2, 3}}},
		{k: 3, m: 3, kill: [][]int{{0, 1, 2}, {3, 4, 5}, {0, 3, 5}, {1, 2, 4}}},
		{k: 6, m: 3, kill: [][]int{{0, 4, 8}, {6, 7, 8}, {1, 2, 3}}},
		{k: 1, m: 2, kill: [][]int{{0}, {0, 1}, {0, 2}, {1, 2}}},
	}
	for _, tc := range cases {
		codec, err := NewCodec(Spec{K: tc.k, M: tc.m})
		if err != nil {
			t.Fatalf("RS(%d,%d): %v", tc.k, tc.m, err)
		}
		rng := rand.New(rand.NewSource(int64(tc.k*100 + tc.m)))
		data := randShards(rng, tc.k, 512)
		parity, err := codec.Encode(data)
		if err != nil {
			t.Fatalf("RS(%d,%d) encode: %v", tc.k, tc.m, err)
		}
		for _, kill := range tc.kill {
			if len(kill) > tc.m {
				t.Fatalf("test bug: killing %d > m=%d", len(kill), tc.m)
			}
			shards := make([][]byte, tc.k+tc.m)
			for i := 0; i < tc.k; i++ {
				shards[i] = append([]byte(nil), data[i]...)
			}
			for i := 0; i < tc.m; i++ {
				shards[tc.k+i] = append([]byte(nil), parity[i]...)
			}
			for _, dead := range kill {
				shards[dead] = nil
			}
			if err := codec.Reconstruct(shards); err != nil {
				t.Fatalf("RS(%d,%d) kill %v: %v", tc.k, tc.m, kill, err)
			}
			for i := 0; i < tc.k; i++ {
				if !bytes.Equal(shards[i], data[i]) {
					t.Errorf("RS(%d,%d) kill %v: data shard %d corrupted", tc.k, tc.m, kill, i)
				}
			}
			for i := 0; i < tc.m; i++ {
				if !bytes.Equal(shards[tc.k+i], parity[i]) {
					t.Errorf("RS(%d,%d) kill %v: parity shard %d corrupted", tc.k, tc.m, kill, i)
				}
			}
		}
	}
}

// TestUnrecoverable asserts m+1 erasures surface the typed error.
func TestUnrecoverable(t *testing.T) {
	for _, spec := range []Spec{{K: 2, M: 1}, {K: 4, M: 2}, {K: 3, M: 3}} {
		codec, err := NewCodec(spec)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		data := randShards(rng, spec.K, 64)
		parity, err := codec.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		shards := make([][]byte, spec.Width())
		copy(shards, data)
		copy(shards[spec.K:], parity)
		for i := 0; i <= spec.M; i++ { // m+1 erasures
			shards[i] = nil
		}
		err = codec.Reconstruct(shards)
		if !errors.Is(err, ErrStripeUnrecoverable) {
			t.Errorf("%v with %d erasures: got %v, want ErrStripeUnrecoverable",
				spec, spec.M+1, err)
		}
	}
}

// TestEncodeRejectsRaggedShards guards the codec's input validation.
func TestEncodeRejectsRaggedShards(t *testing.T) {
	codec, err := NewCodec(Spec{K: 2, M: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codec.Encode([][]byte{make([]byte, 8)}); err == nil {
		t.Error("short shard list accepted")
	}
	if _, err := codec.Encode([][]byte{make([]byte, 8), make([]byte, 9)}); err == nil {
		t.Error("ragged shards accepted")
	}
}

// TestSpecValidate covers the parameter envelope.
func TestSpecValidate(t *testing.T) {
	cases := []struct {
		spec    Spec
		servers int
		ok      bool
	}{
		{Spec{K: 4, M: 2}, 6, true},
		{Spec{K: 4, M: 2}, 5, false}, // not enough servers to spread a stripe
		{Spec{K: 0, M: 2}, 6, false},
		{Spec{K: 4, M: 0}, 6, false},
		{Spec{K: 1, M: 1}, 2, true}, // mirroring degenerate case
		{Spec{K: 120, M: 10}, 200, false},
	}
	for _, tc := range cases {
		err := tc.spec.Validate(tc.servers)
		if (err == nil) != tc.ok {
			t.Errorf("%v with %d servers: got err=%v, want ok=%v", tc.spec, tc.servers, err, tc.ok)
		}
	}
}

// TestGFArithmetic sanity-checks the field: every nonzero element has an
// inverse and multiplication distributes over addition (xor).
func TestGFArithmetic(t *testing.T) {
	for a := 1; a < 256; a++ {
		if got := gfMul(byte(a), gfInv(byte(a))); got != 1 {
			t.Fatalf("a*inv(a) != 1 for a=%d: %d", a, got)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		a, b, c := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		if gfMul(a, b^c) != gfMul(a, b)^gfMul(a, c) {
			t.Fatalf("distributivity fails for %d,%d,%d", a, b, c)
		}
	}
}

// TestReconstructor exercises the repair queue's batching and accounting.
func TestReconstructor(t *testing.T) {
	r := NewReconstructor()
	r.EnqueueChunk(3, 130, 64)
	if r.Pending() != 3 { // 64 + 64 + 2
		t.Fatalf("pending = %d, want 3", r.Pending())
	}
	total := 0
	for {
		task, ok := r.NextUpTo(math.MaxInt)
		if !ok {
			break
		}
		if task.Holder != 3 {
			t.Fatalf("holder = %d, want 3", task.Holder)
		}
		total += task.Stripes
		r.Done(task)
	}
	if total != 130 || r.RepairedStripes() != 130 {
		t.Fatalf("repaired %d/%d stripes, want 130", total, r.RepairedStripes())
	}
}

// TestReconstructorNextUpTo exercises the token-sized splitting the
// repair pacer relies on: a large enqueued batch is claimed in limit-
// sized prefixes covering contiguous disjoint stripe ranges, completion
// accounting still converges, and a Reset mid-split voids the claimed
// prefix along with the queued remainder.
func TestReconstructorNextUpTo(t *testing.T) {
	r := NewReconstructor()
	r.EnqueueChunk(2, 100, 64) // tasks of 64 + 36 stripes

	covered := make(map[int]bool)
	claims := 0
	for {
		task, ok := r.NextUpTo(10)
		if !ok {
			break
		}
		claims++
		if task.Holder != 2 {
			t.Fatalf("holder = %d, want 2", task.Holder)
		}
		if task.Stripes > 10 {
			t.Fatalf("claim of %d stripes exceeds the 10-stripe limit", task.Stripes)
		}
		for s := task.FirstStripe; s < task.FirstStripe+task.Stripes; s++ {
			if covered[s] {
				t.Fatalf("stripe %d claimed twice", s)
			}
			covered[s] = true
		}
		if done := r.Done(task); done != (len(covered) == 100) {
			t.Fatalf("Done reported completion %v with %d/100 stripes", done, len(covered))
		}
	}
	if len(covered) != 100 || claims != 11 { // ceil(64/10)+ceil(36/10) splits
		t.Fatalf("covered %d stripes in %d claims, want 100 in 11", len(covered), claims)
	}
	if r.RepairedStripes() != 100 || r.Remaining(2) != 0 {
		t.Fatalf("repaired %d, remaining %d", r.RepairedStripes(), r.Remaining(2))
	}

	// A limit below 1 claims a single stripe; the remainder keeps its
	// generation so Reset voids both halves.
	r.EnqueueChunk(5, 3, 64)
	one, ok := r.NextUpTo(0)
	if !ok || one.Stripes != 1 {
		t.Fatalf("NextUpTo(0) = %+v, %v; want a one-stripe claim", one, ok)
	}
	r.Reset(5)
	if r.Done(one) {
		t.Fatal("stale split claim completed a reset holder")
	}
	if r.Pending() != 0 {
		t.Fatalf("pending after reset = %d", r.Pending())
	}
}
