package gf

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMulIdentityAndZero(t *testing.T) {
	for a := 0; a < Order; a++ {
		if got := Mul(byte(a), 1); got != byte(a) {
			t.Errorf("Mul(%d,1) = %d, want %d", a, got, a)
		}
		if got := Mul(byte(a), 0); got != 0 {
			t.Errorf("Mul(%d,0) = %d, want 0", a, got)
		}
		if got := Mul(1, byte(a)); got != byte(a) {
			t.Errorf("Mul(1,%d) = %d, want %d", a, got, a)
		}
	}
}

// slowMul is a reference implementation: carry-less multiplication followed
// by reduction modulo the field polynomial.
func slowMul(a, b byte) byte {
	var p byte
	aa, bb := int(a), int(b)
	for i := 0; i < 8; i++ {
		if bb&1 != 0 {
			p ^= byte(aa)
		}
		hi := aa & 0x80
		aa = (aa << 1) & 0xFF
		if hi != 0 {
			aa ^= Poly & 0xFF
		}
		bb >>= 1
	}
	return p
}

func TestMulMatchesReference(t *testing.T) {
	for a := 0; a < Order; a++ {
		for b := 0; b < Order; b++ {
			if got, want := Mul(byte(a), byte(b)), slowMul(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestMulCommutative(t *testing.T) {
	f := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulAssociative(t *testing.T) {
	f := func(a, b, c byte) bool { return Mul(Mul(a, b), c) == Mul(a, Mul(b, c)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistributive(t *testing.T) {
	f := func(a, b, c byte) bool { return Mul(a, b^c) == Mul(a, b)^Mul(a, c) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInverse(t *testing.T) {
	for a := 1; a < Order; a++ {
		if got := Mul(byte(a), Inv(byte(a))); got != 1 {
			t.Fatalf("a*Inv(a) = %d for a=%d, want 1", got, a)
		}
	}
}

func TestDivInvertsMul(t *testing.T) {
	f := func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return Div(Mul(a, b), b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	Div(5, 0)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestLogZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Log(0) did not panic")
		}
	}()
	Log(0)
}

func TestExpNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(-1) did not panic")
		}
	}()
	Exp(-1)
}

func TestExpLogRoundTrip(t *testing.T) {
	for a := 1; a < Order; a++ {
		if got := Exp(Log(byte(a))); got != byte(a) {
			t.Fatalf("Exp(Log(%d)) = %d", a, got)
		}
	}
}

func TestExpPeriodic(t *testing.T) {
	for n := 0; n < 255; n++ {
		if Exp(n) != Exp(n+255) {
			t.Fatalf("Exp not periodic at %d", n)
		}
	}
}

func TestGeneratorOrder(t *testing.T) {
	// The powers of the generator must enumerate all 255 nonzero elements.
	seen := make(map[byte]bool)
	for i := 0; i < Order-1; i++ {
		seen[Exp(i)] = true
	}
	if len(seen) != Order-1 {
		t.Fatalf("generator produced %d distinct elements, want %d", len(seen), Order-1)
	}
}

func TestMulSlice(t *testing.T) {
	src := []byte{0, 1, 2, 3, 100, 200, 255}
	dst := make([]byte, len(src))
	MulSlice(dst, src, 7)
	for i := range src {
		if dst[i] != Mul(src[i], 7) {
			t.Fatalf("MulSlice[%d] = %d, want %d", i, dst[i], Mul(src[i], 7))
		}
	}
}

func TestMulSliceZeroAndOne(t *testing.T) {
	src := []byte{9, 8, 7}
	dst := []byte{1, 2, 3}
	MulSlice(dst, src, 1)
	if !bytes.Equal(dst, src) {
		t.Fatalf("MulSlice by 1 = %v, want %v", dst, src)
	}
	MulSlice(dst, src, 0)
	if !bytes.Equal(dst, []byte{0, 0, 0}) {
		t.Fatalf("MulSlice by 0 = %v, want zeros", dst)
	}
}

func TestMulSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	MulSlice(make([]byte, 2), make([]byte, 3), 5)
}

func TestAddMulSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(100) + 1
		c := byte(rng.Intn(256))
		src := make([]byte, n)
		dst := make([]byte, n)
		rng.Read(src)
		rng.Read(dst)
		want := make([]byte, n)
		for i := range want {
			want[i] = dst[i] ^ Mul(src[i], c)
		}
		AddMulSlice(dst, src, c)
		if !bytes.Equal(dst, want) {
			t.Fatalf("trial %d (n=%d c=%d): AddMulSlice mismatch", trial, n, c)
		}
	}
}

func TestAddMulSliceZeroIsNoop(t *testing.T) {
	dst := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	want := append([]byte(nil), dst...)
	AddMulSlice(dst, []byte{9, 9, 9, 9, 9, 9, 9, 9, 9}, 0)
	if !bytes.Equal(dst, want) {
		t.Fatalf("AddMulSlice by 0 changed dst: %v", dst)
	}
}

func TestAddMulSliceSelfInverse(t *testing.T) {
	// Applying the same AddMul twice must cancel (characteristic 2).
	f := func(c byte, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		src := make([]byte, len(data))
		copy(src, data)
		dst := make([]byte, len(data))
		orig := append([]byte(nil), dst...)
		AddMulSlice(dst, src, c)
		AddMulSlice(dst, src, c)
		return bytes.Equal(dst, orig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddMulSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	AddMulSlice(make([]byte, 4), make([]byte, 5), 3)
}

func TestFieldString(t *testing.T) {
	if GF256.String() != "GF(2^8)" || GF2.String() != "GF(2)" {
		t.Fatalf("unexpected names: %s %s", GF256, GF2)
	}
	if Field(0).String() != "GF(?)" {
		t.Fatalf("zero field name: %s", Field(0))
	}
}

func BenchmarkMul(b *testing.B) {
	var acc byte
	for i := 0; i < b.N; i++ {
		acc ^= Mul(byte(i), byte(i>>8))
	}
	_ = acc
}

func TestXorSliceMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(70) // cover the word loop and the tail
		dst := make([]byte, n)
		src := make([]byte, n)
		rng.Read(dst)
		rng.Read(src)
		want := make([]byte, n)
		for i := range want {
			want[i] = dst[i] ^ src[i]
		}
		AddMulSlice(dst, src, 1)
		if !bytes.Equal(dst, want) {
			t.Fatalf("trial %d (n=%d): xor mismatch", trial, n)
		}
	}
}

func TestAddMulSliceDispatchBothKernels(t *testing.T) {
	// The public entry point must give the table loop's result whichever
	// body runs: below one vector, exactly one, and a block with a tail.
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 31, 32, 1460} {
		src, base := make([]byte, n), make([]byte, n)
		rng.Read(src)
		rng.Read(base)
		for _, c := range []byte{0, 1, 0x5B} {
			want := append([]byte(nil), base...)
			for i := range want {
				want[i] ^= Mul(c, src[i])
			}
			dst := append([]byte(nil), base...)
			AddMulSlice(dst, src, c)
			if !bytes.Equal(dst, want) {
				t.Fatalf("n=%d c=%d: AddMulSlice differs from bytewise Mul", n, c)
			}
		}
	}
}

func TestAddMulSliceZeroAlloc(t *testing.T) {
	// The AXPY kernels are the innermost hot path of every recode and
	// decode; they must never touch the heap.
	src := make([]byte, 1460)
	dst := make([]byte, 1460)
	rand.New(rand.NewSource(10)).Read(src)
	for name, f := range map[string]func(){
		"addmul": func() { AddMulSlice(dst, src, 0xA7) },
		"mul":    func() { MulSlice(dst, src, 0xA7) },
		"xor":    func() { AddMulSlice(dst, src, 1) },
		"table":  func() { addMulSliceTable(dst, src, 0xA7) },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s kernel: %v allocs per run, want 0", name, allocs)
		}
	}
}
