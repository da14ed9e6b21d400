#include "textflag.h"

// AVX2 split-nibble GF(2^8) kernels. c*b = lo[b&15] ^ hi[b>>4], and VPSHUFB
// is sixteen parallel 16-entry table lookups per 128-bit lane, so one
// multiplier's two tables, broadcast to both lanes, multiply 32 bytes in two
// shuffles. Each function needs len(src) >= 32 (the Go wrappers in
// kernel_amd64.go send shorter rows to the table loop) and does all of it:
// whole vectors in the loop, then the len&31 bytes left over as one more
// vector that ends at the end of the row — it overlaps bytes the loop has
// done, so a byte mask keeps them out of the result.
//
// VEX-encoded instructions only, and VZEROUPPER before RET: a single legacy
// SSE instruction (MOVQ to an X register, say) between VEX ones makes the
// CPU save and restore the dirty upper YMM halves, ~130 ns per call on the
// reference host — more than the kernel itself at 1460 B.

DATA nibbleMask<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibbleMask<>(SB), RODATA|NOPTR, $8

// 32 zero bytes, then 32 of 0xff: the 32 bytes at offset r select the last r.
DATA tailMask<>+32(SB)/8, $-1
DATA tailMask<>+40(SB)/8, $-1
DATA tailMask<>+48(SB)/8, $-1
DATA tailMask<>+56(SB)/8, $-1
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// LOADARGS leaves the end of the whole vectors of src in SI and of dst in
// DI, minus their byte count in CX — so (SI)(CX*1) walks forward until CX
// reaches 0 — and len&31 in DX.
#define LOADARGS(dst, src, srclen) \
	MOVQ dst, DI \
	MOVQ src, SI \
	MOVQ srclen, CX \
	MOVQ CX, DX \
	ANDQ $31, DX \
	ANDQ $~31, CX \
	ADDQ CX, SI \
	ADDQ CX, DI \
	NEGQ CX

// TAIL jumps to done if no bytes are left over; otherwise it points
// (SI)(CX*1) at the last 32 bytes of the row and loads their mask into Y2.
#define TAIL(done) \
	TESTQ DX, DX \
	JZ done \
	LEAQ tailMask<>(SB), AX \
	VMOVDQU (AX)(DX*1), Y2 \
	LEAQ -32(DX), CX

// LOADTABLES broadcasts the multiplier's nibble tables into Y6 (low) and Y7
// (high) and the 0x0f byte mask into Y5.
#define LOADTABLES \
	MOVQ lo+0(FP), AX \
	MOVQ hi+8(FP), BX \
	VBROADCASTI128 (AX), Y6 \
	VBROADCASTI128 (BX), Y7 \
	VPBROADCASTQ nibbleMask<>(SB), Y5

// GFMUL sets Y0 = c * (32 source bytes at the cursor), clobbering Y1.
#define GFMUL \
	VMOVDQU (SI)(CX*1), Y0 \
	VPSRLQ $4, Y0, Y1 \
	VPAND Y5, Y0, Y0 \
	VPAND Y5, Y1, Y1 \
	VPSHUFB Y0, Y6, Y0 \
	VPSHUFB Y1, Y7, Y1 \
	VPXOR Y1, Y0, Y0

// func addMulAVX2(lo, hi *[16]byte, dst, src []byte)
// dst[i] ^= c*src[i].
TEXT ·addMulAVX2(SB), NOSPLIT, $0-64
	LOADTABLES
	LOADARGS(dst_base+16(FP), src_base+40(FP), src_len+48(FP))
addmulloop:
	GFMUL
	VPXOR   (DI)(CX*1), Y0, Y0
	VMOVDQU Y0, (DI)(CX*1)
	ADDQ    $32, CX
	JNZ     addmulloop
	TAIL(addmuldone)
	GFMUL
	VPAND   Y2, Y0, Y0
	VPXOR   (DI)(CX*1), Y0, Y0
	VMOVDQU Y0, (DI)(CX*1)
addmuldone:
	VZEROUPPER
	RET

// func mulAVX2(lo, hi *[16]byte, dst, src []byte)
// dst[i] = c*src[i]. dst may be src: the tail vector then reads bytes the
// loop has already scaled, and the mask drops what it makes of them.
TEXT ·mulAVX2(SB), NOSPLIT, $0-64
	LOADTABLES
	LOADARGS(dst_base+16(FP), src_base+40(FP), src_len+48(FP))
mulloop:
	GFMUL
	VMOVDQU Y0, (DI)(CX*1)
	ADDQ    $32, CX
	JNZ     mulloop
	TAIL(muldone)
	GFMUL
	VMOVDQU   (DI)(CX*1), Y3
	VPBLENDVB Y2, Y0, Y3, Y0
	VMOVDQU   Y0, (DI)(CX*1)
muldone:
	VZEROUPPER
	RET

// func xorAVX2(dst, src []byte)
// dst[i] ^= src[i].
TEXT ·xorAVX2(SB), NOSPLIT, $0-48
	LOADARGS(dst_base+0(FP), src_base+24(FP), src_len+32(FP))
xorloop:
	VMOVDQU (SI)(CX*1), Y0
	VPXOR   (DI)(CX*1), Y0, Y0
	VMOVDQU Y0, (DI)(CX*1)
	ADDQ    $32, CX
	JNZ     xorloop
	TAIL(xordone)
	VPAND   (SI)(CX*1), Y2, Y0
	VPXOR   (DI)(CX*1), Y0, Y0
	VMOVDQU Y0, (DI)(CX*1)
xordone:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
// The low half of XCR0: which register state the OS saves on a switch.
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
