package ncproto

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestHeaderLenMatchesPaper(t *testing.T) {
	// "a total of 8 bytes plus the length of coefficients ... the NC
	// header (12 bytes, with 4 blocks in each generation)".
	if got := HeaderLen(4); got != 12 {
		t.Fatalf("HeaderLen(4) = %d, want 12", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := &Packet{
		Flags:      FlagSystematic,
		Session:    0xBEEF,
		Generation: 0xDEADBEEF,
		Coeffs:     []byte{1, 0, 0, 0},
		Payload:    []byte("hello world"),
	}
	buf := p.Encode(nil)
	if len(buf) != p.WireLen() {
		t.Fatalf("encoded %d bytes, want %d", len(buf), p.WireLen())
	}
	got, err := Decode(buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Flags != p.Flags || got.Session != p.Session || got.Generation != p.Generation {
		t.Fatalf("header mismatch: %+v vs %+v", got, p)
	}
	if !bytes.Equal(got.Coeffs, p.Coeffs) || !bytes.Equal(got.Payload, p.Payload) {
		t.Fatal("body mismatch")
	}
}

func TestEncodeReusesBuffer(t *testing.T) {
	p := &Packet{Coeffs: []byte{1, 2}, Payload: []byte{3}}
	buf := make([]byte, 0, 64)
	out := p.Encode(buf)
	if &out[0] != &buf[:1][0] {
		t.Fatal("Encode did not reuse provided buffer")
	}
}

func TestEncodeAllocatesWhenSmall(t *testing.T) {
	p := &Packet{Coeffs: []byte{1, 2, 3, 4}, Payload: make([]byte, 100)}
	out := p.Encode(make([]byte, 0, 4))
	if len(out) != p.WireLen() {
		t.Fatal("Encode with small buffer returned wrong length")
	}
}

func TestDecodeTooShort(t *testing.T) {
	if _, err := Decode([]byte{Magic, 0, 0}, 4); !errors.Is(err, ErrTooShort) {
		t.Fatalf("err = %v, want ErrTooShort", err)
	}
}

func TestDecodeBadMagic(t *testing.T) {
	buf := make([]byte, 20)
	buf[0] = 0x42
	if _, err := Decode(buf, 4); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestDecodeAliasesInput(t *testing.T) {
	p := &Packet{Coeffs: []byte{9, 8}, Payload: []byte{7, 6, 5}}
	buf := p.Encode(nil)
	got, _ := Decode(buf, 2)
	buf[FixedHeaderLen] = 0xFF
	if got.Coeffs[0] != 0xFF {
		t.Fatal("Decode should alias the input buffer")
	}
}

func TestFlags(t *testing.T) {
	if !(Header{Flags: FlagControl}).Control() || (Header{Flags: FlagSystematic | FlagEndOfSession}).Control() {
		t.Fatal("Control accessor wrong")
	}
}

func TestAckRoundTrip(t *testing.T) {
	a := Ack{Session: 7, Generation: 1234567}
	buf := EncodeAck(a)
	got, err := DecodeAck(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatalf("ack round trip: got %+v want %+v", got, a)
	}
}

func TestDecodeAckRejectsData(t *testing.T) {
	p := &Packet{Session: 1}
	if _, err := DecodeAck(p.Encode(nil)); err == nil {
		t.Fatal("non-control packet accepted as ack")
	}
}

func TestDecodeAckRejectsGarbage(t *testing.T) {
	if _, err := DecodeAck([]byte{1, 2}); err == nil {
		t.Fatal("garbage accepted as ack")
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(flags byte, sess uint16, gen uint32, coeffs, payload []byte) bool {
		if len(coeffs) > 255 {
			coeffs = coeffs[:255]
		}
		p := &Packet{
			Flags:      flags,
			Session:    SessionID(sess),
			Generation: GenerationID(gen),
			Coeffs:     coeffs,
			Payload:    payload,
		}
		got, err := Decode(p.Encode(nil), len(coeffs))
		if err != nil {
			return false
		}
		return got.Flags == p.Flags &&
			got.Session == p.Session &&
			got.Generation == p.Generation &&
			bytes.Equal(got.Coeffs, coeffs) &&
			bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	p := &Packet{Coeffs: make([]byte, 4), Payload: make([]byte, 1460)}
	buf := make([]byte, 0, p.WireLen())
	b.SetBytes(int64(p.WireLen()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Encode(buf)
	}
}

func BenchmarkDecode(b *testing.B) {
	p := &Packet{Coeffs: make([]byte, 4), Payload: make([]byte, 1460)}
	buf := p.Encode(nil)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPeekHeaderMatchesDecode(t *testing.T) {
	p := &Packet{
		Flags:      FlagSystematic | FlagEndOfSession,
		Session:    0xBEEF,
		Generation: 0x01020304,
		Coeffs:     []byte{1, 2, 3, 4},
		Payload:    []byte{9, 8, 7},
	}
	buf := p.Encode(nil)
	h, err := PeekHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Flags != p.Flags || h.Session != p.Session || h.Generation != p.Generation {
		t.Fatalf("header = %+v, want fields of %+v", h, p)
	}
	if h.Control() {
		t.Fatal("header flag accessor wrong")
	}
	if _, err := PeekHeader([]byte{Magic, 0}); !errors.Is(err, ErrTooShort) {
		t.Fatalf("short peek: %v", err)
	}
	if _, err := PeekHeader([]byte{0, 0, 0, 0, 0, 0, 0, 0}); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic peek: %v", err)
	}
}

func TestDecodeIntoReusesPacket(t *testing.T) {
	var p Packet
	a := (&Packet{Session: 1, Generation: 2, Coeffs: []byte{1, 2}, Payload: []byte{3}}).Encode(nil)
	b := (&Packet{Session: 9, Generation: 8, Coeffs: []byte{7, 6}, Payload: []byte{5}}).Encode(nil)
	if err := DecodeInto(&p, a, 2); err != nil {
		t.Fatal(err)
	}
	if err := DecodeInto(&p, b, 2); err != nil {
		t.Fatal(err)
	}
	if p.Session != 9 || p.Generation != 8 || p.Coeffs[0] != 7 || p.Payload[0] != 5 {
		t.Fatalf("reused packet holds stale fields: %+v", p)
	}
	if &p.Coeffs[0] != &b[FixedHeaderLen] {
		t.Fatal("DecodeInto did not alias the packet buffer")
	}
}

func TestHotPathZeroAlloc(t *testing.T) {
	// The steady-state packet path encodes into a reused buffer, peeks
	// the fixed header, and decodes in place — none of it may allocate.
	p := &Packet{Session: 3, Generation: 4, Coeffs: []byte{1, 2, 3, 4}, Payload: make([]byte, 1460)}
	wire := p.Encode(nil)
	scratch := make([]byte, 0, p.WireLen())
	var parsed Packet
	cases := map[string]func(){
		"Encode":     func() { p.Encode(scratch) },
		"PeekHeader": func() { _, _ = PeekHeader(wire) },
		"DecodeInto": func() { _ = DecodeInto(&parsed, wire, 4) },
		"DecodeAck":  func() { _, _ = DecodeAck(wire) },
		"PeekBad":    func() { _, _ = PeekHeader(wire[:3]) },
	}
	for name, f := range cases {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, allocs)
		}
	}
}

// TestDoneFlags pins the watermark stamp: it lives in flag bits 3–7 only,
// round-trips through Header.DoneBelow for every distance it can say, and is
// absent — a zero byte, every packet on the wire before it existed — for a
// zero watermark, a watermark past the packet's generation and one more than
// 30 generations behind.
func TestDoneFlags(t *testing.T) {
	const low = FlagSystematic | FlagEndOfSession | FlagControl
	for _, gen := range []GenerationID{0, 1, 29, 30, 31, 1000, 1<<32 - 1} {
		for dist := GenerationID(0); dist <= 40 && dist <= gen; dist++ {
			done := gen - dist
			f := DoneFlags(gen, done)
			if f&low != 0 {
				t.Fatalf("DoneFlags(%d, %d) = %#x touches the three defined flag bits", gen, done, f)
			}
			want := done
			if dist > 30 {
				want = 0
			}
			if done == 0 && f != 0 {
				t.Fatalf("DoneFlags(%d, 0) = %#x, want 0: a zero watermark must not change the flag byte", gen, f)
			}
			if got := (Header{Flags: f | low, Generation: gen}).DoneBelow(); got != want {
				t.Fatalf("gen %d done %d: stamp %#x reads back %d, want %d", gen, done, f, got, want)
			}
		}
		if f := DoneFlags(gen, gen+1); gen+1 != 0 && f != 0 {
			t.Fatalf("DoneFlags(%d, %d) = %#x, want 0 for a watermark past the generation", gen, gen+1, f)
		}
	}
	// A forged stamp reaching below generation 0 says nothing.
	if got := (Header{Flags: 31 << 3, Generation: 5}).DoneBelow(); got != 0 {
		t.Fatalf("stamp reaching below generation 0 reads %d, want 0", got)
	}
	// The header did not grow: 12 + 8 + 20 + 1460 is still one MTU.
	if FixedHeaderLen != 8 || HeaderLen(4)+8+20+1460 != 1500 {
		t.Fatal("the watermark must cost no wire bytes")
	}
}
