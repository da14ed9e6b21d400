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
// The layout mirrors the GF(2^8) kernels: one row kernel (XorWords), fused
// multi-row variants (XorWordsMulti, CombineWords) that strip-block to keep
// the active rows L1-resident, and pack/unpack helpers that bridge the byte
// payloads on the wire to the packed words the codec state holds.

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

// SetBit sets coefficient i of a packed coefficient bitmap to 1.
//
//nc:hotpath
func SetBit(bits []uint64, i int) {
	bits[i/WordBits] |= 1 << (i % WordBits)
}

// XorSlice computes dst[i] ^= src[i] over byte slices — GF(2) addition on
// unpacked payloads, through the same kernel as the c==1 path of
// AddMulSlice. dst and src must have the same length.
//
//nc:hotpath
func XorSlice(dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf: XorSlice length mismatch")
	}
	xorKernel(dst, src)
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

// AddMulWords computes dst += c*src over packed GF(2) rows: a conditional
// XOR, since the only nonzero coefficient is 1. It mirrors AddMulSlice for
// the packed representation.
//
//nc:hotpath
func AddMulWords(dst, src []uint64, c byte) {
	if c&1 == 0 {
		return
	}
	XorWords(dst, src)
}

// fusedStripWords is the column-block length (in words) of the fused packed
// kernels: 1 KiB strips.
const fusedStripWords = 1024 / 8

// XorWordsMulti XORs ONE packed source row into every destination row with
// an odd coefficient, in a single strip-blocked pass — the packed analogue
// of AddMulSlices. len(dsts) must equal len(cs) and every destination must
// have the source's length. Rows with an even (zero in GF(2)) coefficient
// are skipped; no destination may alias src.
//
//nc:hotpath
func XorWordsMulti(dsts [][]uint64, src []uint64, cs []byte) {
	if len(dsts) != len(cs) {
		panic("gf: XorWordsMulti rows/coeffs mismatch")
	}
	for _, d := range dsts {
		if len(d) != len(src) {
			panic("gf: XorWordsMulti length mismatch")
		}
	}
	for off := 0; off < len(src); off += fusedStripWords {
		end := off + fusedStripWords
		if end > len(src) {
			end = len(src)
		}
		s := src[off:end]
		for j, d := range dsts {
			if cs[j]&1 == 0 {
				continue
			}
			xorWords(d[off:end:end], s)
		}
	}
}

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
