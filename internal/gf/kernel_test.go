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
// must leave alone; one vector of the widest body, so an overrunning 64-byte
// store shows.
const kernelGuard = 64

// eachTier runs f once for every kernel body this CPU has — the table loop,
// then AVX2, then GFNI — with the dispatch variable set to it, and logs the
// ones it has not: a GFNI host would otherwise never execute the AVX2 body
// again, and a runner without GFNI would pass without saying what it skipped.
func eachTier(t testing.TB, f func()) {
	t.Helper()
	have := detectTier()
	defer func() { kernelTier = have }()
	for kernelTier = tierTable; kernelTier <= tierGFNI; kernelTier++ {
		if kernelTier > have {
			t.Logf("%s: not available", KernelName())
			continue
		}
		t.Logf("%s: run", KernelName())
		f()
	}
}

// kernelArena hands out dst and src slices at chosen offsets 0..63 from two
// fixed addresses — wherever those lie, the 64 offsets reach every
// misalignment from a vector boundary — dst with guard bytes either side.
type kernelArena struct {
	dst, src []byte
}

func newKernelArena(maxLen int) *kernelArena {
	return &kernelArena{
		dst: make([]byte, maxLen+2*kernelGuard+64),
		src: make([]byte, maxLen+64),
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
		t.Fatalf("%s/%s c=%d n=%d dst+%d src+%d: kernel differs from table loop", op.name, KernelName(), c, n, dstOff, srcOff)
	}
	if !bytes.Equal(src, srcData) {
		t.Fatalf("%s/%s c=%d n=%d dst+%d src+%d: kernel wrote to src", op.name, KernelName(), c, n, dstOff, srcOff)
	}
	for i := range window {
		if (i < kernelGuard || i >= kernelGuard+n) && window[i] != 0xA5^byte(i) {
			t.Fatalf("%s/%s c=%d n=%d dst+%d src+%d: kernel wrote outside dst[:n], at %d", op.name, KernelName(), c, n, dstOff, srcOff, i-kernelGuard)
		}
	}
}

func kernelTestLengths() []int {
	var ns []int
	for n := 0; n <= 130; n++ {
		ns = append(ns, n)
	}
	return append(ns, 255, 256, 257, 1024, 1460, 4099)
}

// TestKernelMatchesTable holds each operation's kernel, in every body the
// CPU has, against the table loop alone. The product is taken in two halves,
// because a kernel sees the multiplier only as table contents and the
// alignment only as addresses: every multiplier at every length at a few
// alignments, and, at every length for a few multipliers, every (dst, src)
// misalignment pair from a 32-byte boundary plus each operand's upper 32
// offsets from a 64-byte one against a few of the other's. Under -race both
// sweeps take every kernelSweepStep-th value (race_on_test.go says why).
func TestKernelMatchesTable(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	lengths := kernelTestLengths()
	arena := newKernelArena(lengths[len(lengths)-1])
	dstData := randSlice(rng, lengths[len(lengths)-1])
	srcData := randSlice(rng, lengths[len(lengths)-1])
	few := []int{0, 1, 31, 33, 63}
	for _, op := range kernelOps {
		t.Run(op.name+"/multipliers", func(t *testing.T) {
			eachTier(t, func() {
				for c := 0; c < 256; c += kernelSweepStep {
					for _, n := range lengths {
						for _, off := range [][2]int{{0, 0}, {1, 3}, {17, 0}, {31, 31}, {63, 33}} {
							arena.check(t, op, byte(c), dstData[:n], srcData[:n], off[0], off[1])
						}
					}
				}
			})
		})
		t.Run(op.name+"/alignments", func(t *testing.T) {
			eachTier(t, func() {
				for _, c := range []byte{0, 1, 2, 0x1D, 0x80, 0xFF} {
					for _, n := range lengths {
						for dstOff := 0; dstOff < 32; dstOff += kernelSweepStep {
							for srcOff := 0; srcOff < 32; srcOff += kernelSweepStep {
								arena.check(t, op, c, dstData[:n], srcData[:n], dstOff, srcOff)
							}
						}
						for upper := 32; upper < 64; upper += kernelSweepStep {
							for _, other := range few {
								arena.check(t, op, c, dstData[:n], srcData[:n], upper, other)
								arena.check(t, op, c, dstData[:n], srcData[:n], other, upper)
							}
						}
					}
				}
			})
		})
	}
}

// FuzzKernel is TestKernelMatchesTable on arbitrary bytes: the fuzzer picks
// the data (dst's half, then src's), the multiplier, the operation and both
// offsets, and every body the CPU has takes them. The seed corpus is
// testdata/fuzz/FuzzKernel: each operation at lengths either side of one and
// two vectors and at the block size.
func FuzzKernel(f *testing.F) {
	arena := newKernelArena(1 << 16)
	f.Fuzz(func(t *testing.T, data []byte, c, opIdx, dstOff, srcOff byte) {
		n := len(data) / 2
		if n > 1<<16 {
			n = 1 << 16
		}
		op := kernelOps[int(opIdx)%len(kernelOps)]
		eachTier(t, func() {
			arena.check(t, op, c, data[:n], data[n:2*n], int(dstOff&63), int(srcOff&63))
		})
	})
}

// combineArena is kernelArena for the gather: any number of source rows,
// each at its own offset from a 64-byte boundary, and one guarded dst.
type combineArena struct {
	dst, src []byte
	stride   int
	rows     [][]byte
}

func newCombineArena(maxRows, maxLen int) *combineArena {
	stride := (maxLen + 64 + 63) &^ 63
	return &combineArena{
		dst:    make([]byte, maxLen+2*kernelGuard+64),
		src:    make([]byte, maxRows*stride),
		stride: stride,
		rows:   make([][]byte, maxRows),
	}
}

// row is where row j lies in a.src: at offset (srcOff+13j) mod 64 of its
// stride, so 64 rows meet every offset.
func (a *combineArena) row(j, n, srcOff int) []byte {
	off := j*a.stride + (srcOff+13*j)&63
	return a.src[off : off+n : off+n]
}

// check gathers len(cs) rows of n bytes into dst at dstOff, and compares the
// result and the guard bytes with the table loop's accumulation.
func (a *combineArena) check(t testing.TB, cs []byte, n, dstOff, srcOff int) {
	t.Helper()
	rows := a.rows[:len(cs)]
	want := make([]byte, n)
	for j := range rows {
		rows[j] = a.row(j, n, srcOff)
		addMulSliceTable(want, rows[j], cs[j])
	}
	window := a.dst[dstOff : dstOff+n+2*kernelGuard]
	for i := range window {
		window[i] = 0xA5 ^ byte(i)
	}
	dst := window[kernelGuard : kernelGuard+n : kernelGuard+n]

	CombineSlices(dst, rows, cs)

	if !bytes.Equal(dst, want) {
		t.Fatalf("combine/%s rows=%d n=%d dst+%d src+%d: kernel differs from table loop", KernelName(), len(cs), n, dstOff, srcOff)
	}
	for i := range window {
		if (i < kernelGuard || i >= kernelGuard+n) && window[i] != 0xA5^byte(i) {
			t.Fatalf("combine/%s rows=%d n=%d dst+%d src+%d: kernel wrote outside dst[:n], at %d", KernelName(), len(cs), n, dstOff, srcOff, i-kernelGuard)
		}
	}
}

// TestCombineMatchesTable holds the gather, in every body the CPU has,
// against the table loop: every row count from none to one past 64 and the
// field's 255, at every length a block or lane boundary can fall in, with
// zero and one among the coefficients and the offsets moving with the case.
func TestCombineMatchesTable(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	lengths := kernelTestLengths()
	arena := newCombineArena(255, lengths[len(lengths)-1])
	rng.Read(arena.src)
	rowCounts := []int{255}
	for r := 0; r <= 65; r++ {
		rowCounts = append(rowCounts, r)
	}
	eachTier(t, func() {
		step := 0
		for _, r := range rowCounts {
			cs := randSlice(rng, r)
			if r > 2 {
				cs[rng.Intn(r)], cs[rng.Intn(r)] = 0, 1
			}
			for _, n := range lengths {
				arena.check(t, cs, n, step&63, step/64&63)
				step += 5
			}
		}
		// One coefficient vector of each single kind, and every source
		// offset for a lone row.
		for _, c := range []byte{0, 1, 0x8E} {
			cs := bytes.Repeat([]byte{c}, 9)
			for off := 0; off < 64; off++ {
				arena.check(t, cs, 1460, 63-off, off)
				arena.check(t, cs[:1], 130, off, off)
			}
		}
	})
}

// FuzzCombine is TestCombineMatchesTable on arbitrary bytes: the fuzzer
// picks the row count, then the coefficients and the rows' bytes from data,
// and both offsets. The seed corpus is testdata/fuzz/FuzzCombine.
func FuzzCombine(f *testing.F) {
	const maxRows, maxLen = 255, 4 << 10
	arena := newCombineArena(maxRows, maxLen)
	f.Fuzz(func(t *testing.T, data []byte, rows, dstOff, srcOff byte) {
		r := int(rows)
		if r > len(data) {
			r = len(data)
		}
		cs, data := data[:r], data[r:]
		n := 0
		if r > 0 {
			n = min(len(data)/r, maxLen)
		}
		for j := 0; j < r; j++ {
			copy(arena.row(j, n, int(srcOff)), data[j*n:])
		}
		eachTier(t, func() {
			arena.check(t, cs, n, int(dstOff&63), int(srcOff))
		})
	})
}

// BenchmarkKernel times each operation in every body the CPU has, at a
// coefficient-vector length, the paper's block size, and a length that
// leaves L2 — the first two are what the codec calls it with; per-call
// overhead that a 1 MiB run hides decides them — and the gather over 4 and
// 64 block-sized rows, the two generation sizes the benchmark deploys.
func BenchmarkKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, op := range kernelOps {
		for _, n := range []int{64, 1460, 1 << 20} {
			src, dst := randSlice(rng, n), randSlice(rng, n)
			eachTier(b, func() {
				b.Run(fmt.Sprintf("%s/%s/%dB", op.name, KernelName(), n), func(b *testing.B) {
					b.SetBytes(int64(n))
					for i := 0; i < b.N; i++ {
						op.kernel(dst, src, byte(i%254)+2)
					}
				})
			})
		}
	}
	for _, rows := range []int{4, 64} {
		arena := newCombineArena(rows, 1460)
		rng.Read(arena.src)
		srcs := make([][]byte, rows)
		for j := range srcs {
			srcs[j] = arena.src[j*arena.stride:][:1460] // a stride apart, like the span arenas' rows
		}
		cs, dst := randSlice(rng, rows), make([]byte, 1460)
		eachTier(b, func() {
			b.Run(fmt.Sprintf("combine/%s/rows=%d", KernelName(), rows), func(b *testing.B) {
				b.SetBytes(int64(rows * len(dst)))
				for i := 0; i < b.N; i++ {
					CombineSlices(dst, srcs, cs)
				}
			})
		})
	}
}
