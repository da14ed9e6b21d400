// Package ncproto defines the network coding wire format of Sec. III-B.
//
// The network coding layer sits between the transport layer (UDP) and the
// application layer. Every NC packet starts with a header that carries the
// information the coding scheme needs — session ID, generation ID, and the
// encoding coefficient vector — "a total of 8 bytes plus the length of
// coefficients". With the paper's default of 4 blocks per generation the
// header is 12 bytes, and 12 + 8 (UDP) + 20 (IP) + 1460 (block) = 1500,
// the NIC MTU, so NC packets are never fragmented.
//
// Layout (big endian):
//
//	offset 0: Magic (1 byte, 0xNC = 0x9C)
//	offset 1: Flags (1 byte)
//	offset 2: SessionID (2 bytes)
//	offset 4: GenerationID (4 bytes)
//	offset 8: Coefficients (BlockCount bytes)
//	offset 8+n: payload (one coded block)
package ncproto

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Magic identifies NC packets; VNFs check it to decide whether a received
// UDP datagram carries the network coding protocol header.
const Magic = 0x9C

// FixedHeaderLen is the length of the header before the coefficient vector.
const FixedHeaderLen = 8

// Flag bits.
const (
	// FlagSystematic marks an uncoded source block (identity coefficient
	// row). The data plane forwards the first packet of a generation
	// without recoding; systematic packets make that explicit.
	FlagSystematic = 1 << 0
	// FlagEndOfSession marks the final generation of a session. Sources
	// emit it; no receiver reads it yet. The intended consumer is an
	// end-of-session that carries the final retirement watermark, which
	// would let receivers tear down decoder state.
	FlagEndOfSession = 1 << 1
	// FlagControl marks in-band control packets (e.g. generation ACKs
	// flowing back from receivers to the source).
	FlagControl = 1 << 2
	// Bits 3–7 carry the session's retirement watermark (see DoneFlags).
	doneShift = 3
)

// DoneFlags returns the flag bits that stamp a data packet of generation gen
// with the watermark done — every generation below done is finished — as the
// distance f = gen-done+1 in bits 3–7, at no wire bytes. It returns 0, no
// stamp and the byte every packet carried before, for a zero watermark (true
// of every packet, so not worth a changed byte), for one past gen (a resend
// of a finished generation) and for one more than 30 generations behind: a
// window that deep keeps the relays' FIFO retirement.
func DoneFlags(gen, done GenerationID) byte {
	if done == 0 || done > gen || gen-done > 30 {
		return 0
	}
	return byte(gen-done+1) << doneShift
}

// Errors returned by Decode.
var (
	ErrTooShort = errors.New("ncproto: packet too short")
	ErrBadMagic = errors.New("ncproto: bad magic byte")
)

// SessionID identifies a multicast session; assigned by the controller.
type SessionID uint16

// GenerationID numbers generations within a session.
type GenerationID uint32

// Packet is a parsed NC packet.
type Packet struct {
	Flags      byte
	Session    SessionID
	Generation GenerationID
	// Coeffs is the encoding coefficient vector (one byte per block in the
	// generation).
	Coeffs []byte
	// Payload is the coded block.
	Payload []byte
}

// WireLen returns the encoded length of the packet.
func (p *Packet) WireLen() int { return FixedHeaderLen + len(p.Coeffs) + len(p.Payload) }

// HeaderLen returns the NC header length for a generation of k blocks.
func HeaderLen(k int) int { return FixedHeaderLen + k }

// Encode serializes the packet into buf, which must have capacity for
// WireLen bytes, and returns the encoded slice. Passing a nil buf allocates.
func (p *Packet) Encode(buf []byte) []byte {
	n := p.WireLen()
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	buf[0] = Magic
	buf[1] = p.Flags
	binary.BigEndian.PutUint16(buf[2:], uint16(p.Session))
	binary.BigEndian.PutUint32(buf[4:], uint32(p.Generation))
	copy(buf[FixedHeaderLen:], p.Coeffs)
	copy(buf[FixedHeaderLen+len(p.Coeffs):], p.Payload)
	return buf
}

// Decode parses an NC packet with a k-coefficient header. The returned
// packet's Coeffs and Payload alias buf; callers that retain the packet
// beyond the lifetime of buf must Clone it.
func Decode(buf []byte, k int) (*Packet, error) {
	p := new(Packet)
	if err := DecodeInto(p, buf, k); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeInto parses an NC packet with a k-coefficient header into p,
// overwriting its fields. It performs no allocation: p's Coeffs and Payload
// are rebound to alias buf, so the data plane can reuse one Packet per
// worker. Callers that retain p beyond the lifetime of buf must Clone it.
func DecodeInto(p *Packet, buf []byte, k int) error {
	if len(buf) < FixedHeaderLen+k {
		return fmt.Errorf("%w: %d bytes, need at least %d", ErrTooShort, len(buf), FixedHeaderLen+k)
	}
	if buf[0] != Magic {
		return fmt.Errorf("%w: 0x%02X", ErrBadMagic, buf[0])
	}
	p.Flags = buf[1]
	p.Session = SessionID(binary.BigEndian.Uint16(buf[2:]))
	p.Generation = GenerationID(binary.BigEndian.Uint32(buf[4:]))
	p.Coeffs = buf[FixedHeaderLen : FixedHeaderLen+k : FixedHeaderLen+k]
	p.Payload = buf[FixedHeaderLen+k:]
	return nil
}

// Header is the fixed 8-byte NC header, parsed without touching the
// coefficient vector or payload. It is the value the data plane's receive
// goroutine needs to classify and dispatch a datagram (control vs data,
// which session shard) before any full parse.
type Header struct {
	Flags      byte
	Session    SessionID
	Generation GenerationID
}

// Control reports whether the packet is in-band control traffic.
func (h Header) Control() bool { return h.Flags&FlagControl != 0 }

// DoneBelow reads the stamp DoneFlags wrote: every generation below the one
// returned is finished. Zero — also for a stamp reaching below generation 0 —
// means the packet says nothing.
func (h Header) DoneBelow() GenerationID {
	if f := GenerationID(h.Flags >> doneShift); f != 0 && f-1 <= h.Generation {
		return h.Generation - (f - 1)
	}
	return 0
}

// PeekHeader parses the fixed header of an NC packet without allocating.
// It returns the bare sentinel errors (ErrTooShort, ErrBadMagic) unwrapped
// so the malformed-packet path is allocation-free too.
func PeekHeader(buf []byte) (Header, error) {
	if len(buf) < FixedHeaderLen {
		return Header{}, ErrTooShort
	}
	if buf[0] != Magic {
		return Header{}, ErrBadMagic
	}
	return Header{
		Flags:      buf[1],
		Session:    SessionID(binary.BigEndian.Uint16(buf[2:])),
		Generation: GenerationID(binary.BigEndian.Uint32(buf[4:])),
	}, nil
}

// Ack is the in-band acknowledgement a receiver returns to the source once
// it has decoded a generation; the file-transfer application uses it for
// reliable delivery and the delay experiments (Table II) time it.
type Ack struct {
	Session    SessionID
	Generation GenerationID
}

// EncodeAck serializes an ACK as a control packet with no payload.
func EncodeAck(a Ack) []byte {
	p := Packet{Flags: FlagControl, Session: a.Session, Generation: a.Generation}
	return p.Encode(nil)
}

// ErrNotControl is returned by DecodeAck for well-formed non-control
// packets.
var ErrNotControl = errors.New("ncproto: not a control packet")

// DecodeAck parses a control packet produced by EncodeAck. It does not
// allocate.
func DecodeAck(buf []byte) (Ack, error) {
	h, err := PeekHeader(buf)
	if err != nil {
		return Ack{}, err
	}
	if !h.Control() {
		return Ack{}, ErrNotControl
	}
	return Ack{Session: h.Session, Generation: h.Generation}, nil
}
