package emunet

import "sync"

// datagram is one queued packet and the address it came from.
type datagram struct {
	src string
	pkt []byte
}

// inbox is an endpoint's receive queue, shared by emulated hosts and UDP
// sockets. Senders append under mu; the consumer takes everything pending
// in one swap and hands it out without touching mu again, so a loaded
// receiver pays one lock acquisition per batch rather than per packet. Both
// slices grow to the deepest backlog the endpoint has actually held, never
// past limit, instead of being allocated at limit up front.
type inbox struct {
	mu       sync.Mutex
	nonEmpty sync.Cond
	q        []datagram // pending, in arrival order
	limit    int
	// held is the size of the batch the consumer is handing out: it counts
	// against limit until the consumer comes back for more, so pending plus
	// taken never exceeds limit.
	held   int
	closed bool

	// rmu serializes consumers; batch[next:] is what the last swap took and
	// has not yet handed out.
	rmu   sync.Mutex
	batch []datagram
	next  int
}

// newInbox returns an empty inbox that holds at most limit pending packets.
func newInbox(limit int) *inbox {
	b := &inbox{limit: limit}
	b.nonEmpty.L = &b.mu
	return b
}

// put queues d and reports whether it did: a full or closed inbox refuses
// it, and the caller drops the packet like an overflowing socket buffer.
func (b *inbox) put(d datagram) bool {
	b.mu.Lock()
	if b.closed || len(b.q)+b.held >= b.limit {
		b.mu.Unlock()
		return false
	}
	b.q = append(b.q, d)
	if len(b.q) == 1 {
		// Only an empty queue can have a consumer waiting on it.
		b.nonEmpty.Signal()
	}
	b.mu.Unlock()
	return true
}

// get blocks until a packet is pending, then fills buf with up to len(buf)
// of the packets the last swap took and returns the count. After close it
// keeps returning what was queued before, then ErrClosed.
func (b *inbox) get(buf []Datagram) (int, error) {
	b.rmu.Lock()
	defer b.rmu.Unlock()
	if b.next == len(b.batch) && !b.refill() {
		return 0, ErrClosed
	}
	n := 0
	for ; n < len(buf) && b.next < len(b.batch); n++ {
		d := &b.batch[b.next]
		buf[n] = Datagram{Peer: d.src, Pkt: d.pkt}
		*d = datagram{}
		b.next++
	}
	return n, nil
}

// refill waits for pending packets and swaps them into batch, returning
// false once the inbox is closed and empty. Callers hold rmu and have
// handed out, and cleared, all of batch.
func (b *inbox) refill() bool {
	b.mu.Lock()
	b.held = 0
	for len(b.q) == 0 && !b.closed {
		b.nonEmpty.Wait()
	}
	b.batch, b.q = b.q, b.batch[:0]
	b.next, b.held = 0, len(b.batch)
	b.mu.Unlock()
	return len(b.batch) > 0
}

// close refuses further packets and wakes a waiting consumer.
func (b *inbox) close() {
	b.mu.Lock()
	b.closed = true
	b.nonEmpty.Broadcast()
	b.mu.Unlock()
}
