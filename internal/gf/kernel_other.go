//go:build !amd64

package gf

// Without a vector body the table loops of gf.go are the whole kernel.

func detectTier() tier { return tierTable }

func addMulKernel(dst, src []byte, c byte) { addMulSliceTable(dst, src, c) }

func mulKernel(dst, src []byte, c byte) { mulSliceTable(dst, src, c) }

func xorKernel(dst, src []byte) { xorSlice(dst, src) }

func combineKernel(dst []byte, rows [][]byte, cs []byte) { combineLoop(dst, rows, cs) }
