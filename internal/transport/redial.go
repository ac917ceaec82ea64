package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// errNodeClosed reports a write attempted after the node shut down.
var errNodeClosed = errors.New("transport: node closed")

// redialer maintains a child's upstream connection across failures. Every
// (re)connect performs the hello handshake — send the subtree-coverage hello,
// read the parent's hello-ack carrying its resync epoch — and writeBuffers
// transparently redials with exponential backoff + jitter when the link dies,
// retrying the in-flight batch on the fresh connection.
//
// A redialer may hold a ranked list of candidate parent addresses. Retrying
// spends the Backoff budget (MaxElapsed / MaxAttempts) per address: when the
// budget for the current parent is exhausted the redialer escalates to the
// next candidate and re-runs the handshake there, giving up only after a full
// unsuccessful sweep of every address. With a single address this degenerates
// to the classic bounded retry loop.
//
// Re-parenting is epoch-fenced. Before any data frame is handed to a
// connection, its highest PSR/failure epoch is recorded against the address
// being written to; the hello sent to address i carries the maximum epoch
// ever attempted on any *other* address as the fence. The parent only
// accepts this child's contributions for epochs strictly above the fence, so
// an in-flight frame retried on a new parent — or a zombie old parent
// flushing stale buffered reports — can never double-count the subtree: a
// fenced epoch degrades to partial coverage, never to a wrong SUM.
//
// The read side of the connection is handed to onConn (the parent only ever
// sends the hello-ack and, for the querier, result acks); the drain goroutine
// it starts is expected to call markDead on read failure so the next write
// redials instead of writing into a dead socket's buffer.
type redialer struct {
	dials            []func() (net.Conn, error)
	hello            func(fence uint64) Frame
	onConn           func(net.Conn) // started after each successful handshake; may be nil
	backoff          Backoff
	handshakeTimeout time.Duration

	mu        sync.Mutex
	conn      net.Conn
	addr      int      // index of the parent address currently in use
	maxSent   []uint64 // per-address high-water mark of data epochs handed to a conn
	syncEpoch uint64   // parent's highest settled epoch, from the latest hello-ack
	connects  int
	failovers int // escalations to the next candidate parent
	closed    bool
	closeCh   chan struct{} // closed by abortRetries: retry loops give up
	stopOnce  sync.Once

	scratch net.Buffers // writeBuffers' reusable vectored-write view
}

// newRedialer assembles a redialer over a ranked, non-empty address list; the
// caller runs Connect to establish the first connection.
func newRedialer(dials []func() (net.Conn, error), hello func(fence uint64) Frame, backoff Backoff, handshakeTimeout time.Duration) *redialer {
	if handshakeTimeout <= 0 {
		handshakeTimeout = 5 * time.Second
	}
	return &redialer{
		dials:            dials,
		hello:            hello,
		maxSent:          make([]uint64, len(dials)),
		backoff:          backoff.withDefaults(),
		handshakeTimeout: handshakeTimeout,
		closeCh:          make(chan struct{}),
	}
}

// fenceLocked returns the fence epoch for the current address: the highest
// data epoch ever attempted on any other address. Caller holds r.mu.
func (r *redialer) fenceLocked() uint64 {
	var fence uint64
	for i, e := range r.maxSent {
		if i != r.addr && e > fence {
			fence = e
		}
	}
	return fence
}

// Fence returns the fence epoch the next handshake on the current address
// would carry.
func (r *redialer) Fence() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fenceLocked()
}

// noteEpoch records a data epoch as attempted on the current address. It must
// run before the bytes are handed to the connection: once a frame may have
// left this process towards parent i, every other parent's fence must cover
// its epoch. With a single candidate address there is no other parent to
// fence, so the bookkeeping (and its lock) is skipped on the write path —
// len(r.dials) is immutable after construction.
func (r *redialer) noteEpoch(e uint64) {
	if e == 0 || len(r.dials) <= 1 {
		return
	}
	r.mu.Lock()
	if e > r.maxSent[r.addr] {
		r.maxSent[r.addr] = e
	}
	r.mu.Unlock()
}

// rotate escalates to the next candidate parent. It reports false when there
// is nowhere to escalate to (a single-address redialer).
func (r *redialer) rotate() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.dials) <= 1 {
		return false
	}
	r.addr = (r.addr + 1) % len(r.dials)
	r.failovers++
	return true
}

// Connect dials the current parent address and runs the hello handshake,
// carrying the fence epoch for that address. It replaces any previous
// connection.
func (r *redialer) Connect() (net.Conn, error) {
	r.mu.Lock()
	dial := r.dials[r.addr]
	fence := r.fenceLocked()
	r.mu.Unlock()
	c, err := dial()
	if err != nil {
		return nil, err
	}
	if err := WriteFrame(c, r.hello(fence)); err != nil {
		c.Close()
		return nil, err
	}
	c.SetReadDeadline(time.Now().Add(r.handshakeTimeout))
	f, err := ReadFrame(c)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("transport: handshake: reading hello-ack: %w", err)
	}
	if f.Type != TypeHello {
		c.Close()
		return nil, fmt.Errorf("transport: handshake: unexpected frame type %d", f.Type)
	}
	c.SetReadDeadline(time.Time{})

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		c.Close()
		return nil, errNodeClosed
	}
	if r.conn != nil {
		r.conn.Close()
	}
	r.conn = c
	r.syncEpoch = f.Epoch
	r.connects++
	r.mu.Unlock()
	if r.onConn != nil {
		r.onConn(c)
	}
	return c, nil
}

// current returns the live connection, or nil when down.
func (r *redialer) current() net.Conn {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.conn
}

// markDead retires c if it is still the current connection. Safe to call from
// the drain goroutine and the writer concurrently.
func (r *redialer) markDead(c net.Conn) {
	r.mu.Lock()
	if r.conn == c {
		r.conn = nil
	}
	r.mu.Unlock()
	c.Close()
}

// SyncEpoch returns the parent's highest settled epoch as of the last
// handshake — reports for epochs at or below it would be discarded upstream.
func (r *redialer) SyncEpoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.syncEpoch
}

// Reconnects counts successful handshakes after the first.
func (r *redialer) Reconnects() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.connects <= 1 {
		return 0
	}
	return r.connects - 1
}

// Failovers counts escalations to the next candidate parent address.
func (r *redialer) Failovers() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failovers
}

// retrySend redials with backoff until send succeeds on a fresh connection,
// escalating through the candidate parent list as per-address budgets
// exhaust. maxEpoch is the highest data epoch in the payload, recorded
// against whichever address is about to be written to.
func (r *redialer) retrySend(send func(net.Conn) error, maxEpoch uint64) error {
	addrStart := time.Now()
	addrAttempts := 0
	tried := 1 // addresses whose budget this sweep has started spending
	var lastErr error
	for attempt := 0; ; attempt++ {
		select {
		case <-r.closeCh:
			return errNodeClosed
		default:
		}
		c, err := r.Connect()
		if err == nil {
			r.noteEpoch(maxEpoch)
			if err = send(c); err == nil {
				return nil
			}
			r.markDead(c)
		}
		if errors.Is(err, errNodeClosed) {
			return err
		}
		lastErr = err
		addrAttempts++
		if r.backoff.Exhausted(addrStart, addrAttempts) {
			if tried >= len(r.dials) || !r.rotate() {
				return fmt.Errorf("transport: redial gave up after %d parent address(es): %w", tried, lastErr)
			}
			// Fresh address, fresh budget, immediate first dial: the new
			// parent is presumed healthy until it proves otherwise.
			tried++
			addrStart, addrAttempts = time.Now(), 0
			attempt = -1
			continue
		}
		select {
		case <-time.After(r.backoff.Delay(attempt)):
		case <-r.closeCh:
			return errNodeClosed
		}
	}
}

// writeBuffers sends a coalesced batch of pre-encoded frames as one vectored
// write, redialing with backoff when the connection is down or dies
// mid-write. It returns nil once the batch was handed to a healthy
// connection, errNodeClosed after Close, or the last failure once the retry
// budget of every candidate parent is exhausted. On any failure the whole
// batch is re-sent on a fresh connection — receivers may see duplicate frames
// (the committed-epoch window dedups them) but never torn ones, since a dead
// stream's tail is discarded at the receiver's next read error. A batch
// replayed onto a *different* parent is dropped there wholesale by the fence,
// which maxBatchEpoch keeps covering the batch's newest epoch.
//
// Called only from a FrameWriter's flusher goroutine, so the scratch view is
// effectively single-threaded and retained across calls for zero steady-state
// allocation.
func (r *redialer) writeBuffers(segs [][]byte) error {
	var maxEpoch uint64
	if len(r.dials) > 1 {
		// The header walk only feeds the re-parenting fence; a single-parent
		// redialer never fences, so skip it on the hot batch path.
		maxEpoch = maxBatchEpoch(segs)
	}
	if c := r.current(); c != nil {
		r.noteEpoch(maxEpoch)
		// net.Buffers consumes its receiver, so rebuild the view per attempt.
		r.scratch = append(r.scratch[:0], segs...)
		if _, err := r.scratch.WriteTo(c); err == nil {
			return nil
		}
		r.markDead(c)
	}
	return r.retrySend(func(c net.Conn) error {
		r.scratch = append(r.scratch[:0], segs...)
		_, err := r.scratch.WriteTo(c)
		return err
	}, maxEpoch)
}

// maxBatchEpoch scans a coalesced batch for its highest data epoch. Batch
// segments jointly hold whole frames (FrameWriter's invariant), so walking
// the length prefixes within each segment visits every header.
func maxBatchEpoch(segs [][]byte) uint64 {
	var max uint64
	for _, seg := range segs {
		for off := 0; off+frameHeaderSize <= len(seg); {
			n := int(beU32(seg[off:]))
			typ := seg[off+4]
			if typ == TypePSR || typ == TypeFailure {
				if e := beU64(seg[off+5:]); e > max {
					max = e
				}
			}
			off += 4 + n
		}
	}
	return max
}

// beU32 / beU64 are tiny local big-endian readers for header scanning.
func beU32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func beU64(b []byte) uint64 {
	return uint64(beU32(b))<<32 | uint64(beU32(b[4:]))
}

// redialSink adapts a redialer into a FrameWriter batch sink.
type redialSink struct{ rd *redialer }

func (s redialSink) WriteBatch(segs [][]byte) error { return s.rd.writeBuffers(segs) }

// abortRetries makes every current and later retry loop give up with
// errNodeClosed while a live connection stays usable. Owners call it before
// draining their writer on shutdown, so closing never waits out a backoff
// budget against a dead parent.
func (r *redialer) abortRetries() { r.stopOnce.Do(func() { close(r.closeCh) }) }

// Close tears the connection down and aborts in-flight retries.
func (r *redialer) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	c := r.conn
	r.conn = nil
	r.mu.Unlock()
	r.abortRetries()
	if c != nil {
		c.Close()
	}
	return nil
}
