package emunet

// WithUDPInbox overrides the receive inbox capacity in packets (default
// 4096), so tests can exercise the overflow-drop path with a small inbox.
func WithUDPInbox(n int) UDPOption {
	return func(c *udpConfig) {
		if n > 0 {
			c.inbox = n
		}
	}
}
