#include "textflag.h"

// GFNI/AVX-512 bodies. Multiplying by c is linear over GF(2), so it is an
// 8x8 bit matrix (affine[c], kernel_amd64.go), and VGF2P8AFFINEQB applies one
// matrix, broadcast to the eight qwords of a ZMM, to 64 bytes at once. There
// is no minimum length and no overlap trick: the bytes left over after the
// whole vectors are loaded and stored under an opmask, which also keeps a
// fault on the masked-off bytes from being raised.

// TAILMASK sets K1 to the low min(DX, 64) bits, for DX below 256: BZHI reads
// its index from the low byte and keeps the source whole from 64 up.
#define TAILMASK \
	MOVQ  $-1, AX \
	BZHIQ DX, AX, AX \
	KMOVQ AX, K1

// func addMulGFNI(m uint64, dst, src []byte)
// dst[i] ^= c*src[i], m = affine[c].
TEXT ·addMulGFNI(SB), NOSPLIT, $0-56
	VPBROADCASTQ m+0(FP), Z4
	MOVQ dst_base+8(FP), DI
	MOVQ src_base+32(FP), SI
	MOVQ src_len+40(FP), DX
	SUBQ $64, DX
	JB   addmultail
addmulloop:
	VMOVDQU64      (SI), Z0
	VGF2P8AFFINEQB $0, Z4, Z0, Z0
	VPXORQ         (DI), Z0, Z0
	VMOVDQU64      Z0, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $64, DX
	JAE  addmulloop
addmultail:
	ANDQ $63, DX
	JZ   addmuldone
	TAILMASK
	VMOVDQU8.Z     (SI), K1, Z0
	VMOVDQU8.Z     (DI), K1, Z1
	VGF2P8AFFINEQB $0, Z4, Z0, Z0
	VPXORQ         Z1, Z0, Z0
	VMOVDQU8       Z0, K1, (DI)
addmuldone:
	VZEROUPPER
	RET

// COMBINEROWS runs body once per row, with the row's base in SI and its
// coefficient's matrix in Z4: R8/R9 are the base and count of the [][]byte
// headers, R10 the coefficients, R11 the affine table.
#define COMBINEROWS(row, test, body) \
	XORL CX, CX \
	MOVQ R8, R12 \
	JMP  test \
row: \
	MOVQ         (R12), SI \
	MOVBLZX      (R10)(CX*1), AX \
	VPBROADCASTQ (R11)(AX*8), Z4 \
	body \
	ADDQ $24, R12 \
	INCQ CX \
test: \
	CMPQ CX, R9 \
	JB   row

// GATHER folds 64 bytes of the row, loaded into x, into acc.
#define GATHER(x, acc) \
	VGF2P8AFFINEQB $0, Z4, x, x \
	VPXORQ         x, acc, acc

#define BLOCKBODY \
	VMOVDQU64 (SI)(BX*1), Z5 \
	VMOVDQU64 64(SI)(BX*1), Z6 \
	VMOVDQU64 128(SI)(BX*1), Z7 \
	VMOVDQU64 192(SI)(BX*1), Z8 \
	GATHER(Z5, Z0) \
	GATHER(Z6, Z1) \
	GATHER(Z7, Z2) \
	GATHER(Z8, Z3)

#define LANEBODY \
	VMOVDQU8.Z (SI)(BX*1), K1, Z5 \
	GATHER(Z5, Z0)

// func combineGFNI(tab *[256]uint64, dst []byte, rows [][]byte, cs []byte)
// dst[i] = sum_j cs[j]*rows[j][i], a gather: for each 256-byte column block
// at offset BX the four accumulators Z0-Z3 stay in registers while the loop
// walks the rows, so dst is stored once per block and never loaded — the
// scatter form (one addMul per row) loads and stores it once per row. The
// len&255 bytes left over go the same way 64 at a time under TAILMASK. No
// coefficient is special: affine[0] is the zero matrix, affine[1] the
// identity, and no rows at all leave the accumulators zero. A row may be dst
// itself if it is the only one: each block is read before it is written.
TEXT ·combineGFNI(SB), NOSPLIT, $0-80
	MOVQ tab+0(FP), R11
	MOVQ dst_base+8(FP), DI
	MOVQ dst_len+16(FP), DX
	MOVQ rows_base+32(FP), R8
	MOVQ rows_len+40(FP), R9
	MOVQ cs_base+56(FP), R10
	XORL BX, BX
	SUBQ $256, DX
	JB   combinetail
combineblock:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	COMBINEROWS(blockrow, blocktest, BLOCKBODY)
	VMOVDQU64 Z0, (DI)(BX*1)
	VMOVDQU64 Z1, 64(DI)(BX*1)
	VMOVDQU64 Z2, 128(DI)(BX*1)
	VMOVDQU64 Z3, 192(DI)(BX*1)
	ADDQ $256, BX
	SUBQ $256, DX
	JAE  combineblock
combinetail:
	ANDQ $255, DX
	JZ   combinedone
combinelane:
	TAILMASK
	VPXORQ Z0, Z0, Z0
	COMBINEROWS(lanerow, lanetest, LANEBODY)
	VMOVDQU8 Z0, K1, (DI)(BX*1)
	ADDQ $64, BX
	SUBQ $64, DX
	JA   combinelane
combinedone:
	VZEROUPPER
	RET
