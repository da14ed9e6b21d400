package gf

// The three row operations the codec is built on, on amd64: an AVX2
// split-nibble body (kernel_amd64.s) for rows of at least one 32-byte
// vector, and the table loop of gf.go for shorter ones — and for everything
// on a CPU, or under an OS, without AVX2. kernel_other.go is the same three
// functions without the vector body.

// useAVX2 is decided once, at package init, from CPUID.
var useAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (OSXSAVE set and XCR0 bits 1 and 2).
func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if xgetbv0()&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

// addMulKernel computes dst[i] ^= c * src[i] over len(src) bytes.
//
//nc:hotpath
func addMulKernel(dst, src []byte, c byte) {
	if useAVX2 && len(src) >= 32 {
		addMulAVX2(&_tables.mulLo[c], &_tables.mulHi[c], dst[:len(src)], src)
		return
	}
	addMulSliceTable(dst, src, c)
}

// mulKernel computes dst[i] = c * src[i] over len(src) bytes. dst may be
// src.
//
//nc:hotpath
func mulKernel(dst, src []byte, c byte) {
	if useAVX2 && len(src) >= 32 {
		mulAVX2(&_tables.mulLo[c], &_tables.mulHi[c], dst[:len(src)], src)
		return
	}
	mulSliceTable(dst, src, c)
}

// xorKernel computes dst[i] ^= src[i] over len(src) bytes.
//
//nc:hotpath
func xorKernel(dst, src []byte) {
	if useAVX2 && len(src) >= 32 {
		xorAVX2(dst[:len(src)], src)
		return
	}
	xorSlice(dst, src)
}

//go:noescape
func addMulAVX2(lo, hi *[16]byte, dst, src []byte)

//go:noescape
func mulAVX2(lo, hi *[16]byte, dst, src []byte)

//go:noescape
func xorAVX2(dst, src []byte)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)
