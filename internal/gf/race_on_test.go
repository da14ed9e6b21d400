//go:build race

package gf

// kernelSweepStep thins TestKernelMatchesTable under the race detector: every
// fifth multiplier and every fifth offset (0, 5, ..., 30 and 32, 37, ..., 62:
// both sides of a 32- and a 64-byte boundary, odd and even). The detector
// does not see inside the assembly bodies, which is where the full product
// earns its time, and slows the Go around them tenfold; the run without
// -race keeps every multiplier and the full 32 x 32 offset product.
const kernelSweepStep = 5
