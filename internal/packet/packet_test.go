package packet

import "testing"

func TestAddLatencyAccumulates(t *testing.T) {
	var p Packet
	p.AddLatency(1500) // 1.5us truncates to 1us
	p.AddLatency(2500)
	if p.LatUS != 3 {
		t.Fatalf("LatUS = %d, want 3", p.LatUS)
	}
	if p.LatencyNS() != 3000 {
		t.Fatalf("LatencyNS = %d, want 3000", p.LatencyNS())
	}
}

func TestAddLatencySaturates(t *testing.T) {
	p := Packet{LatUS: 0xFFFFFFF0}
	p.AddLatency(1_000_000_000) // 1s = 1e6 us, would overflow
	if p.LatUS != 0xFFFFFFFF {
		t.Fatalf("LatUS = %d, want saturation", p.LatUS)
	}
}

func TestOpStrings(t *testing.T) {
	want := map[Op]string{
		OpCreateVSSD: "create_vssd", OpDelVSSD: "del_vssd",
		OpWrite: "write", OpRead: "read", OpGC: "gc_op", OpResponse: "response",
	}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), s)
		}
	}
	if Op(99).String() != "Op(99)" {
		t.Error("unknown op string")
	}
}

func TestGCFieldValuesMatchPaper(t *testing.T) {
	// §3.5.1 fixes the wire values: soft=0, regular=1, bg=2, accept=3,
	// delay=4, finish=5.
	if GCSoft != 0 || GCRegular != 1 || GCBackground != 2 || GCAccept != 3 || GCDelay != 4 || GCFinish != 5 {
		t.Fatal("GC field wire values diverge from the paper")
	}
	names := map[GCField]string{
		GCSoft: "soft", GCRegular: "regular", GCBackground: "bg",
		GCAccept: "accept", GCDelay: "delay", GCFinish: "finish",
	}
	for g, s := range names {
		if g.String() != s {
			t.Errorf("%d.String() = %q, want %q", g, g.String(), s)
		}
	}
	if GCField(77).String() != "GCField(77)" {
		t.Error("unknown gc field string")
	}
}

func TestIPHelpers(t *testing.T) {
	ip := IP4(10, 0, 0, 16)
	if ip != 0x0A000010 {
		t.Fatalf("IP4 = %x", ip)
	}
}

func TestHeaderSizeMatchesFig6(t *testing.T) {
	// 1-byte OP + 4-byte vSSD_ID + 4-byte LAT.
	if HeaderSize != 9 {
		t.Fatalf("header size = %d, want 9", HeaderSize)
	}
}
