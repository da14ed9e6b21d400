package gf

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// kernelOp is one of the three row operations: the kernel the codec calls
// and the portable loop that is its oracle.
type kernelOp struct {
	name   string
	kernel func(dst, src []byte, c byte)
	table  func(dst, src []byte, c byte)
}

var kernelOps = []kernelOp{
	{"addmul", addMulKernel, addMulSliceTable},
	{"mul", mulKernel, mulSliceTable},
	{"xor", func(d, s []byte, _ byte) { xorKernel(d, s) }, func(d, s []byte, _ byte) { xorSlice(d, s) }},
}

// kernelGuard is the number of bytes kept either side of dst that a kernel
// must leave alone; one vector, so an overrunning 32-byte store shows.
const kernelGuard = 32

// kernelArena hands out dst and src slices at chosen offsets 0..31 from two
// fixed addresses — wherever those lie, the 32 offsets reach every
// misalignment from a vector boundary — dst with guard bytes either side.
type kernelArena struct {
	dst, src []byte
}

func newKernelArena(maxLen int) *kernelArena {
	return &kernelArena{
		dst: make([]byte, maxLen+2*kernelGuard+32),
		src: make([]byte, maxLen+32),
	}
}

// check runs op's kernel on n bytes of srcData over n bytes of dstData, with
// dst and src at the given offsets, and compares the result, and the
// guard bytes, against the table loop's.
func (a *kernelArena) check(t testing.TB, op kernelOp, c byte, dstData, srcData []byte, dstOff, srcOff int) {
	t.Helper()
	n := len(srcData)
	want := append([]byte(nil), dstData...)
	op.table(want, srcData, c)

	window := a.dst[dstOff : dstOff+n+2*kernelGuard]
	for i := range window {
		window[i] = 0xA5 ^ byte(i)
	}
	dst := window[kernelGuard : kernelGuard+n : kernelGuard+n]
	copy(dst, dstData)
	src := a.src[srcOff : srcOff+n : srcOff+n]
	copy(src, srcData)

	op.kernel(dst, src, c)

	if !bytes.Equal(dst, want) {
		t.Fatalf("%s c=%d n=%d dst+%d src+%d: kernel differs from table loop", op.name, c, n, dstOff, srcOff)
	}
	if !bytes.Equal(src, srcData) {
		t.Fatalf("%s c=%d n=%d dst+%d src+%d: kernel wrote to src", op.name, c, n, dstOff, srcOff)
	}
	for i := range window {
		if (i < kernelGuard || i >= kernelGuard+n) && window[i] != 0xA5^byte(i) {
			t.Fatalf("%s c=%d n=%d dst+%d src+%d: kernel wrote outside dst[:n], at %d", op.name, c, n, dstOff, srcOff, i-kernelGuard)
		}
	}
}

func kernelTestLengths() []int {
	var ns []int
	for n := 0; n <= 130; n++ {
		ns = append(ns, n)
	}
	return append(ns, 1024, 1460, 4099)
}

// TestKernelMatchesTable holds each operation's kernel — on amd64 the AVX2
// body plus the table-loop tail — against the table loop alone. The product
// is taken in two halves, because a kernel sees the multiplier only as table
// contents and the alignment only as addresses: every multiplier at every
// length at a few alignments, and every (dst, src) misalignment pair at every
// length for a few multipliers.
func TestKernelMatchesTable(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	lengths := kernelTestLengths()
	arena := newKernelArena(lengths[len(lengths)-1])
	dstData := randSlice(rng, lengths[len(lengths)-1])
	srcData := randSlice(rng, lengths[len(lengths)-1])
	for _, op := range kernelOps {
		t.Run(op.name+"/multipliers", func(t *testing.T) {
			for c := 0; c < 256; c++ {
				for _, n := range lengths {
					for _, off := range [][2]int{{0, 0}, {1, 3}, {17, 0}, {31, 31}} {
						arena.check(t, op, byte(c), dstData[:n], srcData[:n], off[0], off[1])
					}
				}
			}
		})
		t.Run(op.name+"/alignments", func(t *testing.T) {
			for _, c := range []byte{0, 1, 2, 0x1D, 0x80, 0xFF} {
				for _, n := range lengths {
					for dstOff := 0; dstOff < 32; dstOff++ {
						for srcOff := 0; srcOff < 32; srcOff++ {
							arena.check(t, op, c, dstData[:n], srcData[:n], dstOff, srcOff)
						}
					}
				}
			}
		})
	}
}

// FuzzKernel is TestKernelMatchesTable on arbitrary bytes: the fuzzer picks
// the data (dst's half, then src's), the multiplier, the operation and both
// offsets. The seed corpus is testdata/fuzz/FuzzKernel: each operation at
// lengths either side of one and two vectors and at the block size.
func FuzzKernel(f *testing.F) {
	arena := newKernelArena(1 << 16)
	f.Fuzz(func(t *testing.T, data []byte, c, opIdx, dstOff, srcOff byte) {
		n := len(data) / 2
		if n > 1<<16 {
			n = 1 << 16
		}
		op := kernelOps[int(opIdx)%len(kernelOps)]
		arena.check(t, op, c, data[:n], data[n:2*n], int(dstOff&31), int(srcOff&31))
	})
}

// BenchmarkKernel times each operation's kernel beside its table loop at a
// coefficient-vector length, the paper's block size, and a length that
// leaves L2 — the first two are what the codec calls it with; per-call
// overhead that a 1 MiB run hides decides them.
func BenchmarkKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, op := range kernelOps {
		for _, n := range []int{64, 1460, 1 << 20} {
			src, dst := randSlice(rng, n), randSlice(rng, n)
			size := fmt.Sprintf("%dB", n)
			for _, body := range []struct {
				name string
				fn   func(dst, src []byte, c byte)
			}{{"kernel", op.kernel}, {"table", op.table}} {
				b.Run(op.name+"/"+body.name+"/"+size, func(b *testing.B) {
					b.SetBytes(int64(n))
					for i := 0; i < b.N; i++ {
						body.fn(dst, src, byte(i%254)+2)
					}
				})
			}
		}
	}
}
