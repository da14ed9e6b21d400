package gf

// This file provides the word-wide GF(2) execution path. Over the binary
// field every coefficient is one bit and addmul degenerates to a conditional
// XOR — no tables at all — so the natural unit of work is the 64-bit machine
// word, not the byte: payloads are packed into []uint64 and one XOR moves
// 64 coded bits per ALU op ("Random Linear Network Coding on Programmable
// Switches" picks GF(2) for exactly this reason). Coefficient vectors pack
// 64 coefficients per word, so eliminating a row at generation size k costs
// k/64 word ops instead of k byte ops.
//
// The layout mirrors the GF(2^8) kernels: one row kernel (XorWords), a fused
// gather (CombineWords) that strip-blocks to keep the active rows
// L1-resident, and pack/unpack helpers that bridge the byte payloads on the
// wire to the packed words the codec state holds.

// WordBits is the number of GF(2) coefficients (or payload bits) per packed
// word.
const WordBits = 64

// WordsForBits returns the number of uint64 words needed to hold n bits.
func WordsForBits(n int) int { return (n + WordBits - 1) / WordBits }

// WordsForBytes returns the number of uint64 words needed to hold n bytes.
func WordsForBytes(n int) int { return (n + 7) / 8 }

// PackBytes packs a byte slice into little-endian uint64 words. dst must
// have at least WordsForBytes(len(src)) words; a partial trailing word is
// zero-padded so packed rows XOR cleanly regardless of payload length.
//
//nc:hotpath
func PackBytes(dst []uint64, src []byte) {
	n := len(src)
	if len(dst) < WordsForBytes(n) {
		panic("gf: PackBytes destination too short")
	}
	i, w := 0, 0
	for ; i+8 <= n; i, w = i+8, w+1 {
		dst[w] = le.Uint64(src[i:])
	}
	if i < n {
		var tail uint64
		for shift := 0; i < n; i, shift = i+1, shift+8 {
			tail |= uint64(src[i]) << shift
		}
		dst[w] = tail
	}
}

// UnpackBytes unpacks little-endian uint64 words into a byte slice, the
// inverse of PackBytes. src must have at least WordsForBytes(len(dst)) words.
//
//nc:hotpath
func UnpackBytes(dst []byte, src []uint64) {
	n := len(dst)
	if len(src) < WordsForBytes(n) {
		panic("gf: UnpackBytes source too short")
	}
	i, w := 0, 0
	for ; i+8 <= n; i, w = i+8, w+1 {
		le.PutUint64(dst[i:], src[w])
	}
	if i < n {
		tail := src[w]
		for shift := 0; i < n; i, shift = i+1, shift+8 {
			dst[i] = byte(tail >> shift)
		}
	}
}

// PackBits packs a GF(2) coefficient vector (one byte per coefficient, only
// the low bit significant) into a bitmap: coefficient i lands in bit i%64 of
// word i/64. dst must have at least WordsForBits(len(coeffs)) words; unused
// high bits of the last word are cleared.
//
//nc:hotpath
func PackBits(dst []uint64, coeffs []byte) {
	n := len(coeffs)
	words := WordsForBits(n)
	if len(dst) < words {
		panic("gf: PackBits destination too short")
	}
	for w := 0; w < words; w++ {
		dst[w] = 0
	}
	for i := 0; i < n; i++ {
		dst[i/WordBits] |= uint64(coeffs[i]&1) << (i % WordBits)
	}
}

// UnpackBits expands a coefficient bitmap back to one byte per coefficient
// (0 or 1), the inverse of PackBits. src must have at least
// WordsForBits(len(dst)) words.
//
//nc:hotpath
func UnpackBits(dst []byte, src []uint64) {
	n := len(dst)
	if len(src) < WordsForBits(n) {
		panic("gf: UnpackBits source too short")
	}
	for i := 0; i < n; i++ {
		dst[i] = byte(src[i/WordBits]>>(i%WordBits)) & 1
	}
}

// Bit returns coefficient i (0 or 1) of a packed coefficient bitmap.
//
//nc:hotpath
func Bit(bits []uint64, i int) byte {
	return byte(bits[i/WordBits]>>(i%WordBits)) & 1
}

// XorWords computes dst[i] ^= src[i] over packed words — the GF(2) row
// operation. src may be shorter than dst (only the overlap is combined),
// which lets a short packed row fold into a longer scratch row.
//
//nc:hotpath
func XorWords(dst, src []uint64) {
	if len(src) > len(dst) {
		panic("gf: XorWords source longer than destination")
	}
	xorWords(dst, src)
}

// xorWords is XorWords without the length check, four words per iteration:
// BenchmarkXorWords has it at 1.7x a plain range loop on an MTU-sized row.
//
//nc:hotpath
func xorWords(dst, src []uint64) {
	n := len(src)
	i := 0
	for ; i+4 <= n; i += 4 {
		d := dst[i : i+4 : i+4]
		s := src[i : i+4 : i+4]
		d[0] ^= s[0]
		d[1] ^= s[1]
		d[2] ^= s[2]
		d[3] ^= s[3]
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}

// fusedStripWords is the column-block length (in words) of the fused packed
// gather: 1 KiB strips.
const fusedStripWords = 1024 / 8

// CombineWords sets dst = XOR of every source row with an odd coefficient —
// N packed rows gathered into one destination in a single strip-blocked
// pass, the packed analogue of CombineSlices (and the GF(2) emission kernel
// of encoder and recoder). dst is overwritten, and zero-filled if no
// coefficient is odd; it must not alias any source. len(srcs) must equal
// len(cs) and every source must have dst's length.
//
//nc:hotpath
func CombineWords(dst []uint64, srcs [][]uint64, cs []byte) {
	if len(srcs) != len(cs) {
		panic("gf: CombineWords rows/coeffs mismatch")
	}
	for _, s := range srcs {
		if len(s) != len(dst) {
			panic("gf: CombineWords length mismatch")
		}
	}
	for off := 0; off < len(dst); off += fusedStripWords {
		end := off + fusedStripWords
		if end > len(dst) {
			end = len(dst)
		}
		d := dst[off:end:end]
		started := false
		for j, s := range srcs {
			if cs[j]&1 == 0 {
				continue
			}
			ss := s[off:end:end]
			if !started {
				copy(d, ss)
				started = true
				continue
			}
			xorWords(d, ss)
		}
		if !started {
			for i := range d {
				d[i] = 0
			}
		}
	}
}
