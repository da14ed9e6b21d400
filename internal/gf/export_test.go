package gf

// Log returns log_g(a) for nonzero a. It panics if a is zero.
func Log(a byte) int {
	if a == 0 {
		panic("gf: log of zero")
	}
	return int(_tables.log[a])
}
