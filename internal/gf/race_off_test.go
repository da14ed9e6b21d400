//go:build !race

package gf

// kernelSweepStep is 1 without the race detector: TestKernelMatchesTable
// takes every multiplier and every offset pair (race_on_test.go thins them).
const kernelSweepStep = 1
