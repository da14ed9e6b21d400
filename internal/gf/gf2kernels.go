package gf

// This file holds the word-wide GF(2) helpers that the whole-system
// benchmark times (benchmark/layers.go: gf.xorwords_ns_per_kib). The codec
// does not call them: a GF(2) session draws 0/1 coefficients and runs
// through the byte kernels, whose c == 1 case is the XOR kernel.

// WordsForBytes returns the number of uint64 words needed to hold n bytes.
// Only benchmark/layers.go calls it.
func WordsForBytes(n int) int { return (n + 7) / 8 }

// PackBytes packs a byte slice into little-endian uint64 words. dst must
// have at least WordsForBytes(len(src)) words; a partial trailing word is
// zero-padded so packed rows XOR cleanly regardless of payload length.
// Only benchmark/layers.go calls it.
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

// XorWords computes dst[i] ^= src[i] over packed words. src may be shorter
// than dst (only the overlap is combined). Only benchmark/layers.go calls
// it.
//
//nc:hotpath
func XorWords(dst, src []uint64) {
	if len(src) > len(dst) {
		panic("gf: XorWords source longer than destination")
	}
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
