package dataplane

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ncfn/internal/buffer"
	"ncfn/internal/emunet"
	"ncfn/internal/ncproto"
	"ncfn/internal/rlnc"
	"ncfn/internal/simclock"
)

// SourceConfig configures a session sender.
type SourceConfig struct {
	Session ncproto.SessionID
	Params  rlnc.Params
	// RateMbps paces the payload emission rate; zero sends as fast as the
	// conn accepts (the emulated links then shape the traffic).
	RateMbps float64
	// Redundancy is the number of extra coded packets per generation
	// (NC0/NC1/NC2).
	Redundancy int
	// Systematic emits the generation's source blocks uncoded before the
	// redundant coded packets, letting downstream nodes forward the first
	// packet of each generation without coding.
	Systematic bool
	// TxBatch coalesces the source's emissions into per-destination rings
	// of this depth flushed through the conn's SendBatch (sendmmsg on
	// linux); every generation boundary drains the rings, so a generation
	// is fully on the wire when SendGeneration returns. Zero or one — or a
	// conn without a batch path — sends one syscall per packet.
	TxBatch int
	// Seed fixes the coding randomness.
	Seed int64
	// Clock defaults to the real clock.
	Clock simclock.Clock
}

// Source is a session sender: it splits application data into generations,
// encodes, and emits paced packets to its next hops.
type Source struct {
	conn  emunet.PacketConn
	cfg   SourceConfig
	table *ForwardingTable

	mu      sync.Mutex
	nextGen ncproto.GenerationID

	// emitMu guards the emission scratch: one encoder reset per generation,
	// the generation's view of the hop groups, one reusable coded block, one
	// wire buffer, and the tx coalescer — so the steady-state send path
	// allocates nothing.
	emitMu sync.Mutex
	enc    *rlnc.Encoder
	hops   []HopGroup
	emCB   rlnc.CodedBlock
	wire   []byte
	// resends counts ResendGeneration calls; each folds it into its seed so
	// that no two resends repeat the same draw.
	resends int64
	// txc, when non-nil (SourceConfig.TxBatch over a BatchPacketConn),
	// rings emissions per destination and flushes at ring depth and at
	// every generation boundary.
	txc *txCoalescer

	// frontiers holds what each receiver has acknowledged, learned from the
	// ACKs themselves and touched only by recvLoop; doneBelow, their minimum,
	// is the retirement watermark emit stamps on every data packet.
	frontiers map[string][]genSpan
	doneBelow atomic.Uint32

	acks      chan AckFrom
	wg        sync.WaitGroup
	closeOnce sync.Once
	done      chan struct{}
}

// NewSource builds a Source over conn. Call Close to release the receive
// goroutine that collects generation ACKs.
func NewSource(conn emunet.PacketConn, cfg SourceConfig) (*Source, error) {
	enc, err := rlnc.NewEncoder(cfg.Params, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("dataplane: source: %w", err)
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	s := &Source{
		conn:      conn,
		cfg:       cfg,
		enc:       enc,
		table:     NewForwardingTable(),
		frontiers: make(map[string][]genSpan),
		acks:      make(chan AckFrom, 4096),
		done:      make(chan struct{}),
		txc:       newTxCoalescer(conn, cfg.TxBatch),
	}
	s.wg.Add(1)
	go s.recvLoop()
	return s, nil
}

// SetHops installs the source's next-hop groups for its session.
func (s *Source) SetHops(hops []HopGroup) {
	s.table.Set(s.cfg.Session, hops)
}

// AckFrom is a generation acknowledgement tagged with the acknowledging
// receiver's address, so multicast senders can track per-receiver progress.
type AckFrom struct {
	ncproto.Ack
	From string
}

// Acks returns the channel of generation acknowledgements flowing back
// from receivers. The channel is lossy: an ACK that arrives while it is full
// is not queued, so a reader that must not miss one has to keep up or repair
// by timeout. The retirement watermark does not depend on it being read.
func (s *Source) Acks() <-chan AckFrom { return s.acks }

// maxReceivers caps the receivers a source tracks and maxAckedRuns the runs it
// remembers for each, so no ACK stream can grow either. An ACK past a cap is
// not tracked: the watermark stops short of it and relays retire FIFO again.
const maxReceivers, maxAckedRuns = 64, 16

// genSpan is the run of generations [lo, hi).
type genSpan struct{ lo, hi ncproto.GenerationID }

// ackRun adds generation g to a, what one receiver has acknowledged: sorted,
// disjoint, non-adjacent runs of which the first starts at generation 0. So
// a[0].hi is the receiver's next unacknowledged generation and the rest are
// the few — or, behind one lost generation, the very many — ahead of it.
func ackRun(a []genSpan, g ncproto.GenerationID) []genSpan {
	i := 0
	for i < len(a) && a[i].hi < g {
		i++
	}
	switch {
	case i == len(a) || g+1 < a[i].lo: // a run of its own
		if len(a) < maxAckedRuns {
			a = append(a, genSpan{})
			copy(a[i+1:], a[i:])
			a[i] = genSpan{g, g + 1}
		}
	case g+1 == a[i].lo:
		a[i].lo = g
	case g == a[i].hi:
		if a[i].hi++; i+1 < len(a) && a[i+1].lo == a[i].hi {
			a[i].hi = a[i+1].hi
			a = append(a[:i+1], a[i+2:]...)
		}
	}
	return a
}

// noteAck feeds one ACK to its receiver's runs and raises the watermark to
// the minimum over all receivers. A receiver first heard from starts at the
// current watermark: what is below is already declared finished, and relays
// serve it there by forwarding. An ACK for a generation never sent is ignored,
// so the watermark cannot pass what was sent. Called only by recvLoop.
func (s *Source) noteAck(from string, g ncproto.GenerationID) {
	s.mu.Lock()
	low := s.nextGen
	s.mu.Unlock()
	a, known := s.frontiers[from]
	if g >= low || !known && len(s.frontiers) >= maxReceivers {
		return
	}
	if !known {
		a = append(make([]genSpan, 0, maxAckedRuns), genSpan{0, ncproto.GenerationID(s.doneBelow.Load())})
	}
	next := a[0].hi
	a = ackRun(a, g)
	s.frontiers[from] = a
	if a[0].hi == next {
		return
	}
	for _, r := range s.frontiers {
		low = min(low, r[0].hi)
	}
	if uint32(low) > s.doneBelow.Load() {
		s.doneBelow.Store(uint32(low))
	}
}

// Params returns the source's coding parameters.
func (s *Source) Params() rlnc.Params { return s.cfg.Params }

// recvLoop collects the session's ACK control packets.
func (s *Source) recvLoop() {
	defer s.wg.Done()
	for {
		pkt, src, err := s.conn.Recv()
		if err != nil {
			if errors.Is(err, emunet.ErrClosed) {
				return
			}
			select {
			case <-s.done:
				return
			default:
				continue
			}
		}
		ack, err := ncproto.DecodeAck(pkt)
		buffer.PutPacket(pkt) // the ACK is fully parsed; recycle the datagram
		// Another session's ACK says nothing about this session's
		// generations: it must neither move the watermark nor reach Acks().
		if err == nil && ack.Session == s.cfg.Session {
			// Before the lossy send: a slow Acks() reader must not stall it.
			s.noteAck(src, ack.Generation)
			select {
			case s.acks <- AckFrom{Ack: ack, From: src}:
			default:
			}
		}
	}
}

// Close stops the source.
func (s *Source) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.done)
		err = s.conn.Close()
		s.wg.Wait()
	})
	return err
}

// SendData splits data into generations and sends them all, pacing at the
// configured rate. It returns the ID of the first generation sent and the
// number of generations.
func (s *Source) SendData(data []byte) (ncproto.GenerationID, int, error) {
	gens := rlnc.SplitGenerations(s.cfg.Params, data)
	if len(gens) == 0 {
		return 0, 0, nil
	}
	var first ncproto.GenerationID
	genBytes := float64(s.cfg.Params.GenerationBytes())
	var interval time.Duration
	if s.cfg.RateMbps > 0 {
		interval = time.Duration(genBytes * 8 / (s.cfg.RateMbps * 1e6) * float64(time.Second))
	}
	start := s.cfg.Clock.Now()
	for i, gen := range gens {
		last := i == len(gens)-1
		gid, err := s.SendGeneration(gen, last)
		if err != nil {
			return first, i, err
		}
		if i == 0 {
			first = gid
		}
		if interval > 0 && !last {
			// Absolute pacing: sleep to the schedule, not by increments,
			// so encoding time does not accumulate drift.
			next := start.Add(time.Duration(i+1) * interval)
			if d := next.Sub(s.cfg.Clock.Now()); d > 0 {
				s.cfg.Clock.Sleep(d)
			}
		}
	}
	return first, len(gens), nil
}

// SendGeneration encodes and emits a single generation (at most
// GenerationBytes of data) and returns its generation ID. If last is true
// the packets carry the end-of-session flag.
func (s *Source) SendGeneration(data []byte, last bool) (ncproto.GenerationID, error) {
	s.mu.Lock()
	gid := s.nextGen
	s.nextGen++
	s.mu.Unlock()
	if err := s.sendGenerationAs(gid, data, last); err != nil {
		return gid, err
	}
	return gid, nil
}

// ResendGeneration re-encodes and re-sends an already-sent generation with
// fresh random combinations (the reliability path when a generation times
// out without an ACK). Every call draws anew, deterministically for a given
// seed and call sequence: a relay that has lost its first-pass record can
// complete a generation from resends alone only if they are not copies.
func (s *Source) ResendGeneration(gid ncproto.GenerationID, data []byte, extra int) error {
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	seed := s.cfg.Seed + int64(gid) + 77 + s.resends<<32
	s.resends++
	if err := s.beginGeneration(data, seed); err != nil {
		return err
	}
	for _, h := range s.hops {
		dst := h.Pick(s.cfg.Session, gid)
		if dst == "" {
			continue
		}
		for i := 0; i < extra; i++ {
			s.enc.CodedInto(&s.emCB)
			if err := s.emit(gid, s.emCB, false, false, dst); err != nil {
				return err
			}
		}
	}
	return s.flushEmit()
}

// beginGeneration loads data into the encoder and the session's current hop
// groups into s.hops (callers hold emitMu).
func (s *Source) beginGeneration(data []byte, seed int64) error {
	s.hops = s.table.AppendGroups(s.hops[:0], s.cfg.Session)
	if len(s.hops) == 0 {
		return fmt.Errorf("dataplane: source has no next hops")
	}
	return s.enc.Reset(data, seed)
}

// flushEmit drains the tx coalescer at a generation boundary (callers hold
// emitMu).
func (s *Source) flushEmit() error {
	if s.txc == nil {
		return nil
	}
	if err := s.txc.flush(); err != nil {
		return fmt.Errorf("dataplane: emit flush: %w", err)
	}
	return nil
}

// sendGenerationAs encodes one generation and distributes packets across
// the hop groups. Each group receives its own quota of *distinct* packets
// (the conceptual-flow split that lets the multicast rate exceed any single
// link's capacity); a group with PerGen == 0 receives the full default
// budget of generation size + redundancy.
func (s *Source) sendGenerationAs(gid ncproto.GenerationID, data []byte, last bool) error {
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	if err := s.beginGeneration(data, s.cfg.Seed+int64(gid)); err != nil {
		return err
	}
	def := s.cfg.Params.GenerationBlocks + s.cfg.Redundancy
	for _, h := range s.hops {
		dst := h.Pick(s.cfg.Session, gid)
		if dst == "" {
			continue
		}
		quota := h.quota(def)
		for i := 0; i < quota; i++ {
			// Allocation-free emission: encode into the reusable block
			// (conn.Send copies the wire bytes before returning). The first
			// k emissions of a systematic source are the source blocks.
			systematic := s.cfg.Systematic && s.enc.SystematicInto(&s.emCB)
			if !systematic {
				s.enc.CodedInto(&s.emCB)
			}
			if err := s.emit(gid, s.emCB, systematic, last, dst); err != nil {
				return err
			}
		}
	}
	// Generation boundary: everything emitted above is on the wire before
	// SendGeneration returns, batched or not.
	return s.flushEmit()
}

// emit sends one coded block to one destination, encoding into the source's
// reusable wire buffer (callers hold emitMu).
func (s *Source) emit(gid ncproto.GenerationID, cb rlnc.CodedBlock, systematic, last bool, dst string) error {
	flags := ncproto.DoneFlags(gid, ncproto.GenerationID(s.doneBelow.Load()))
	if systematic {
		flags |= ncproto.FlagSystematic
	}
	if last {
		flags |= ncproto.FlagEndOfSession
	}
	s.wire = (&ncproto.Packet{
		Flags:      flags,
		Session:    s.cfg.Session,
		Generation: gid,
		Coeffs:     cb.Coeffs,
		Payload:    cb.Payload,
	}).Encode(s.wire)
	if s.txc != nil {
		if err := s.txc.add(dst, s.wire); err != nil {
			return fmt.Errorf("dataplane: emit to %s: %w", dst, err)
		}
		return nil
	}
	if err := s.conn.Send(dst, s.wire); err != nil {
		return fmt.Errorf("dataplane: emit to %s: %w", dst, err)
	}
	return nil
}
