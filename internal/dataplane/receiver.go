package dataplane

import (
	"fmt"
	"sync"

	"ncfn/internal/emunet"
	"ncfn/internal/ncproto"
	"ncfn/internal/rlnc"
)

// MultiReceiver is a receiving endpoint that decodes any number of
// sessions arriving on one network address — the situation at a node that
// subscribes to several multicast sessions at once (e.g. a conference
// participant listening to every other speaker). It reassembles each
// session's byte stream in generation order and acknowledges each decoded
// generation directly back to that session's source (Sec. V-B2).
type MultiReceiver struct {
	vnf *VNF

	mu       sync.Mutex
	sessions map[ncproto.SessionID]*recvSession

	wg        sync.WaitGroup
	closeOnce sync.Once
	done      chan struct{}
}

// recvSession is one session's reassembly state.
type recvSession struct {
	params    rlnc.Params
	srcAddr   string
	got       map[ncproto.GenerationID][]byte
	bytesDone int
}

// NewMultiReceiver builds a receiving endpoint on conn. Register sessions
// with AddSession before (or while) traffic flows.
func NewMultiReceiver(conn emunet.PacketConn, opts ...VNFOption) *MultiReceiver {
	m := &MultiReceiver{
		vnf:      NewVNF(conn, opts...),
		sessions: make(map[ncproto.SessionID]*recvSession),
		done:     make(chan struct{}),
	}
	m.vnf.Start()
	m.wg.Add(1)
	go m.collect()
	return m
}

// AddSession registers a session to decode. srcAddr, when non-empty, is
// where generation ACKs for the session are sent.
func (m *MultiReceiver) AddSession(id ncproto.SessionID, params rlnc.Params, srcAddr string) error {
	if err := m.vnf.Configure(SessionConfig{ID: id, Params: params, Role: RoleDecoder}); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.sessions[id]; dup {
		return fmt.Errorf("dataplane: receiver already has session %d", id)
	}
	m.sessions[id] = &recvSession{
		params:  params,
		srcAddr: srcAddr,
		got:     make(map[ncproto.GenerationID][]byte),
	}
	return nil
}

// RemoveSession stops decoding a session and drops what it reassembled.
func (m *MultiReceiver) RemoveSession(id ncproto.SessionID) {
	m.vnf.EndSession(id)
	m.mu.Lock()
	delete(m.sessions, id)
	m.mu.Unlock()
}

// collect drains decoded generations from the VNF into session state.
func (m *MultiReceiver) collect() {
	defer m.wg.Done()
	for {
		select {
		case <-m.done:
			return
		case d := <-m.vnf.Deliveries():
			m.mu.Lock()
			rs := m.sessions[d.Session]
			var srcAddr string
			if rs != nil {
				if _, dup := rs.got[d.Generation]; !dup {
					rs.got[d.Generation] = d.Data
					rs.bytesDone += len(d.Data)
				}
				srcAddr = rs.srcAddr
			}
			m.mu.Unlock()
			if srcAddr != "" {
				ack := ncproto.EncodeAck(ncproto.Ack{Session: d.Session, Generation: d.Generation})
				// Best effort; ACK loss only delays reliability logic.
				_ = m.vnf.conn.Send(srcAddr, ack)
			}
		}
	}
}

// Generations returns how many distinct generations of the session have
// been decoded.
func (m *MultiReceiver) Generations(id ncproto.SessionID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.sessions[id]
	if rs == nil {
		return 0
	}
	return len(rs.got)
}

// Bytes returns the session's decoded payload byte count.
func (m *MultiReceiver) Bytes(id ncproto.SessionID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.sessions[id]
	if rs == nil {
		return 0
	}
	return rs.bytesDone
}

// Data reassembles the session's generations 0..n-1 into a contiguous byte
// stream; it returns false if any generation in the range is missing.
func (m *MultiReceiver) Data(id ncproto.SessionID, n int) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.sessions[id]
	if rs == nil {
		return nil, false
	}
	out := make([]byte, 0, n*rs.params.GenerationBytes())
	for g := 0; g < n; g++ {
		d, ok := rs.got[ncproto.GenerationID(g)]
		if !ok {
			return nil, false
		}
		out = append(out, d...)
	}
	return out, true
}

// GenerationData returns the decoded payload of one generation, if
// complete.
func (m *MultiReceiver) GenerationData(id ncproto.SessionID, g ncproto.GenerationID) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.sessions[id]
	if rs == nil {
		return nil, false
	}
	d, ok := rs.got[g]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), d...), true
}

// MissingBelow lists the session's generations in [0, n) not yet decoded.
func (m *MultiReceiver) MissingBelow(id ncproto.SessionID, n int) []ncproto.GenerationID {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.sessions[id]
	var out []ncproto.GenerationID
	for g := 0; g < n; g++ {
		if rs == nil {
			out = append(out, ncproto.GenerationID(g))
			continue
		}
		if _, ok := rs.got[ncproto.GenerationID(g)]; !ok {
			out = append(out, ncproto.GenerationID(g))
		}
	}
	return out
}

// Close stops the endpoint.
func (m *MultiReceiver) Close() error {
	var err error
	m.closeOnce.Do(func() {
		close(m.done)
		err = m.vnf.Close()
		m.wg.Wait()
	})
	return err
}
