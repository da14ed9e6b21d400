// Package buffer holds what is left of the VNF packet buffer of Sec. III-B
// once the data plane owns generation state itself: the paper's buffer
// capacity (Fig. 5 measures that 1024 generations is sufficient; that is
// the default) and the packet buffer pool. The FIFO-over-generations
// eviction the paper describes is a policy of the data plane's generation
// index (internal/dataplane/sessionstore.go), which keeps one record per
// live generation so the coding function "can quickly encode the newly
// received packets with existing packets from the same session and same
// generation" in O(1) per packet. The seed's standalone FIFO buffer
// survives as the test-only reference model in reference_test.go.
package buffer

// DefaultCapacity is the VNF buffer capacity in generations (Fig. 5 shows
// gains flatten at 1024).
const DefaultCapacity = 1024
