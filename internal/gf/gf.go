// Package gf implements arithmetic over the finite field GF(2^8).
//
// The field is constructed with the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the same representation used by
// practical network coding libraries (Sec. III-B of the paper follows the
// literature in choosing GF(2^8) as the coding field). Addition and
// subtraction are both XOR; multiplication and division go through
// logarithm/antilogarithm tables so that the per-byte cost is two table
// lookups and one addition.
//
// The package also provides the vectorized kernels the RLNC codec is built
// on: MulSlice (scale a block) and AddMulSlice (accumulate a scaled block),
// which together implement y += c*x over byte slices.
package gf

import (
	"encoding/binary"
	"fmt"
)

// le shortens the word-at-a-time loads of the portable loops.
var le = binary.LittleEndian

// Poly is the primitive polynomial used to construct the field,
// x^8 + x^4 + x^3 + x^2 + 1.
const Poly = 0x11D

// Order is the number of elements in the field.
const Order = 256

// tables bundles the precomputed lookup tables for field arithmetic.
type tables struct {
	// exp[i] = g^i where g = 2 is a generator. Doubled in length so that
	// mul can index exp[log(a)+log(b)] without a modular reduction.
	exp [2 * (Order - 1)]byte
	// log[a] = i such that g^i = a, for a != 0. log[0] is unused.
	log [Order]byte
	// inv[a] = a^-1 for a != 0. inv[0] is unused.
	inv [Order]byte
	// mul is the full 256x256 product table. It costs 64 KiB and makes the
	// hot AddMulSlice kernel a single indexed load per byte.
	mul [Order][Order]byte
	// mulLo and mulHi are the split nibble tables: for a multiplier c,
	// mulLo[c][n] = c * n and mulHi[c][n] = c * (n << 4). Because field
	// multiplication is linear over GF(2), c*b = mulLo[c][b&0xF] ^
	// mulHi[c][b>>4]. Each multiplier needs just 32 bytes of table (two
	// cache lines): the 16-entry shuffle tables of the vector kernel.
	mulLo [Order][16]byte
	mulHi [Order][16]byte
}

// _tables is package-level immutable state, initialized once at startup.
// It is never written after buildTables returns.
var _tables = buildTables()

func buildTables() *tables {
	t := &tables{}
	x := 1
	for i := 0; i < Order-1; i++ {
		t.exp[i] = byte(x)
		t.exp[i+Order-1] = byte(x)
		t.log[x] = byte(i)
		x <<= 1
		if x >= Order {
			x ^= Poly
		}
	}
	for a := 1; a < Order; a++ {
		// a^-1 = g^(255 - log a).
		t.inv[a] = t.exp[Order-1-int(t.log[a])]
	}
	for a := 0; a < Order; a++ {
		for b := 0; b < Order; b++ {
			if a == 0 || b == 0 {
				continue
			}
			t.mul[a][b] = t.exp[int(t.log[a])+int(t.log[b])]
		}
	}
	for c := 0; c < Order; c++ {
		for n := 0; n < 16; n++ {
			t.mulLo[c][n] = t.mul[c][n]
			t.mulHi[c][n] = t.mul[c][n<<4]
		}
	}
	return t
}

// Mul returns a * b in GF(2^8).
func Mul(a, b byte) byte {
	return _tables.mul[a][b]
}

// Div returns a / b in GF(2^8). It panics if b is zero, mirroring integer
// division semantics; callers in this repository always guard the divisor.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf: division by zero")
	}
	if a == 0 {
		return 0
	}
	return _tables.exp[int(_tables.log[a])+Order-1-int(_tables.log[b])]
}

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf: inverse of zero")
	}
	return _tables.inv[a]
}

// Exp returns g^n where g = 2 is the field generator and n may be any
// non-negative integer.
func Exp(n int) byte {
	if n < 0 {
		panic(fmt.Sprintf("gf: negative exponent %d", n))
	}
	return _tables.exp[n%(Order-1)]
}

// MulSlice sets dst[i] = c * src[i] for every i — the overwrite counterpart
// of AddMulSlice, used to scale a row in place and to start an accumulation
// without zeroing the destination first. dst and src must have the same
// length; they may alias only if identical slices.
//
//nc:hotpath
func MulSlice(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf: MulSlice length mismatch")
	}
	switch c {
	case 0:
		for i := range dst {
			dst[i] = 0
		}
	case 1:
		copy(dst, src)
	default:
		mulKernel(dst, src, c)
	}
}

// AddMulSlice computes dst[i] += c * src[i] for every i (the GF(2^8)
// equivalent of an AXPY kernel). dst and src must have the same length and
// must not alias unless they are identical slices with c == 0 or c == 1.
//
// Each row operation (this one, MulSlice, CombineSlices) has one
// kernel per CPU class: the best vector body the CPU has, chosen at package
// init (kernel_amd64.go), and the table loops below for rows shorter than
// the AVX2 body takes and everywhere else (kernel_other.go).
//
//nc:hotpath
func AddMulSlice(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf: AddMulSlice length mismatch")
	}
	switch c {
	case 0:
	case 1:
		// Addition is XOR: the systematic-packet fast path on every recoder
		// and decoder.
		xorKernel(dst, src)
	default:
		addMulKernel(dst, src, c)
	}
}

// tier names the body the row kernels run in: the best the CPU has, found
// once at package init (detectTier, kernel_amd64.go) and fixed from then on.
type tier int

const (
	tierTable tier = iota // the portable loops below
	tierAVX2              // split-nibble VPSHUFB, 32 bytes per step
	tierGFNI              // VGF2P8AFFINEQB on ZMM, 64 bytes per instruction
)

var kernelTier = detectTier()

// KernelName says which body this process multiplies with — "gfni-avx512",
// "avx2" or "table" — so that two nodes whose coding cost differs severalfold
// can be told apart from their own output.
func KernelName() string {
	return [...]string{"table", "avx2", "gfni-avx512"}[kernelTier]
}

// WideKernelSelected reports false: the start-up race between a "wide" and
// a table kernel is gone (one kernel per operation, chosen by CPUID). Only
// benchmark/run.go and benchmark/traced.go call it.
func WideKernelSelected() bool { return false }

// addMulSliceTable is the portable dst[i] ^= c*src[i] loop: one 64 KiB
// product table, one indexed load per byte. It takes the rows too short for
// the vector kernel, is the whole kernel where there is no vector body, and
// is the oracle the kernel tests compare against.
//
//nc:hotpath
func addMulSliceTable(dst, src []byte, c byte) {
	row := &_tables.mul[c]
	// Process 8 bytes per iteration to amortize bounds checks.
	n := len(src)
	i := 0
	for ; i+8 <= n; i += 8 {
		d := dst[i : i+8 : i+8]
		s := src[i : i+8 : i+8]
		d[0] ^= row[s[0]]
		d[1] ^= row[s[1]]
		d[2] ^= row[s[2]]
		d[3] ^= row[s[3]]
		d[4] ^= row[s[4]]
		d[5] ^= row[s[5]]
		d[6] ^= row[s[6]]
		d[7] ^= row[s[7]]
	}
	for ; i < n; i++ {
		dst[i] ^= row[src[i]]
	}
}

// mulSliceTable is the portable dst[i] = c*src[i] loop.
//
//nc:hotpath
func mulSliceTable(dst, src []byte, c byte) {
	row := &_tables.mul[c]
	n := len(src)
	i := 0
	for ; i+8 <= n; i += 8 {
		d := dst[i : i+8 : i+8]
		s := src[i : i+8 : i+8]
		d[0] = row[s[0]]
		d[1] = row[s[1]]
		d[2] = row[s[2]]
		d[3] = row[s[3]]
		d[4] = row[s[4]]
		d[5] = row[s[5]]
		d[6] = row[s[6]]
		d[7] = row[s[7]]
	}
	for ; i < n; i++ {
		dst[i] = row[src[i]]
	}
}

// xorSlice is the portable dst[i] ^= src[i] loop, eight bytes at a time.
//
//nc:hotpath
func xorSlice(dst, src []byte) {
	n := len(src)
	i := 0
	for ; i+8 <= n; i += 8 {
		d := le.Uint64(dst[i:])
		s := le.Uint64(src[i:])
		le.PutUint64(dst[i:], d^s)
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}
