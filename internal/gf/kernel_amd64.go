package gf

// The row operations the codec is built on, on amd64, in the best body the
// CPU has (kernel_amd64.s): GFNI/AVX-512 — one affine instruction multiplies
// 64 bytes, at any length — or the AVX2 split-nibble body for rows of at
// least one 32-byte vector, with the table loop of gf.go for shorter ones
// and for everything on a CPU, or under an OS, with neither. kernel_other.go
// is the same functions without the vector bodies.

// detectTier reads the CPU's class from CPUID; package init calls it once.
func detectTier() tier {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return tierTable
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return tierTable
	}
	// XCR0 bits 1–2: the OS saves the YMM registers across a context
	// switch; bits 5–7: the opmask and ZMM registers too.
	xcr0 := xgetbv0()
	_, b, c, _ := cpuid(7, 0)
	const avx2, bmi2, avx512f, avx512bw, gfni = 1 << 5, 1 << 8, 1 << 16, 1 << 30, 1 << 8
	switch {
	case xcr0&6 != 6 || b&avx2 == 0:
		return tierTable
	case xcr0&0xE6 == 0xE6 && b&bmi2 != 0 && b&avx512f != 0 && b&avx512bw != 0 && c&gfni != 0:
		return tierGFNI
	}
	return tierAVX2
}

// affine[c] is "multiply by c" as the 8x8 bit matrix VGF2P8AFFINEQB takes:
// byte 7-i is the mask whose parity with an input byte is bit i of the
// product, so bit j of it is bit i of c*2^j. The instruction's own multiply
// (VGF2P8MULB) reduces by 0x11B, not this field's 0x11D; the affine form
// takes any GF(2)-linear map, and multiplying by a constant is one.
var affine = func() (t [Order]uint64) {
	for c := range t {
		for j := 0; j < 8; j++ {
			p := Mul(byte(c), 1<<j)
			for i := 0; i < 8; i++ {
				t[c] |= uint64(p>>i&1) << (8*(7-i) + j)
			}
		}
	}
	return t
}()

// addMulKernel computes dst[i] ^= c * src[i] over len(src) bytes.
//
//nc:hotpath
func addMulKernel(dst, src []byte, c byte) {
	switch {
	case kernelTier == tierGFNI:
		addMulGFNI(affine[c], dst[:len(src)], src)
	case kernelTier == tierAVX2 && len(src) >= 32:
		addMulAVX2(&_tables.mulLo[c], &_tables.mulHi[c], dst[:len(src)], src)
	default:
		addMulSliceTable(dst, src, c)
	}
}

// mulKernel computes dst[i] = c * src[i] over len(src) bytes. dst may be
// src.
//
//nc:hotpath
func mulKernel(dst, src []byte, c byte) {
	switch {
	case kernelTier == tierGFNI:
		// The gather over one row; it reads each block before writing it.
		combineGFNI(&affine, dst[:len(src)], [][]byte{src}, []byte{c})
	case kernelTier == tierAVX2 && len(src) >= 32:
		mulAVX2(&_tables.mulLo[c], &_tables.mulHi[c], dst[:len(src)], src)
	default:
		mulSliceTable(dst, src, c)
	}
}

// xorKernel computes dst[i] ^= src[i] over len(src) bytes.
//
//nc:hotpath
func xorKernel(dst, src []byte) {
	if kernelTier >= tierAVX2 && len(src) >= 32 {
		xorAVX2(dst[:len(src)], src)
		return
	}
	xorSlice(dst, src)
}

// combineKernel computes dst[i] = sum_j cs[j] * rows[j][i] over len(dst)
// bytes; every row has dst's length and len(rows) == len(cs).
//
//nc:hotpath
func combineKernel(dst []byte, rows [][]byte, cs []byte) {
	if kernelTier == tierGFNI {
		combineGFNI(&affine, dst, rows, cs)
		return
	}
	combineLoop(dst, rows, cs)
}

//go:noescape
func addMulGFNI(m uint64, dst, src []byte)

//go:noescape
func combineGFNI(tab *[Order]uint64, dst []byte, rows [][]byte, cs []byte)

//go:noescape
func addMulAVX2(lo, hi *[16]byte, dst, src []byte)

//go:noescape
func mulAVX2(lo, hi *[16]byte, dst, src []byte)

//go:noescape
func xorAVX2(dst, src []byte)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)
