package transfer

// Bytes returns the contiguous bytes received so far.
func (s *TCPSink) Bytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}

// Data returns a copy of the received stream.
func (s *TCPSink) Data() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.data...)
}
