package transport

import (
	"errors"
	"net"
	"sync"
)

// FrameWriter coalesces frames queued by one producer path into batches
// flushed as a single vectored write — the replacement for per-frame
// syscalls. Frames are encoded directly into a fixed-capacity pooled batch
// buffer (encode→write→release, 0 allocs/op steady state). The writer never
// holds a frame back: the flusher takes the building batch as soon as it is
// free, so a batch is exactly the frames enqueued while the previous write was
// in flight (capped by MaxBatchBytes / MaxBatchFrames). An idle link costs one
// write per frame and no added latency; a busy one amortises its syscalls. A
// single flusher goroutine performs all sink writes, so batches reach the wire
// in enqueue order.
//
// Errors are sticky: once the sink fails, every later Enqueue returns the
// error and queued batches are discarded, mirroring a dead connection. The
// owner tears down or redials exactly as it would for a failed WriteFrame.
type FrameWriter struct {
	cfg FrameWriterConfig

	mu    sync.Mutex
	cur   *wbatch
	queue []*wbatch // full batches awaiting the flusher, FIFO
	spare []*wbatch // the flusher's reused drain list (flusher-only)
	err   error     // sticky sink error

	closed  bool
	writing bool // flusher is inside a drain cycle
	idle    *sync.Cond
	kick    chan struct{}
	closeCh chan struct{}
	wg      sync.WaitGroup

	pool sync.Pool // of *wbatch

	flushes   uint64 // batches written
	framesOut uint64
	bytesOut  uint64
	dropped   uint64 // frames discarded after a sticky error
}

// FrameWriterConfig tunes a FrameWriter. Zero values select the defaults.
type FrameWriterConfig struct {
	// Sink consumes flushed batches. Required.
	Sink BatchSink

	// MaxBatchBytes caps one batch's encoded size (default 8 KiB: room for
	// MaxBatchFrames report frames, and small enough that the two batch
	// buffers every writer keeps resident stay cheap). A batch buffer of
	// exactly this capacity is pooled and never reallocated, so frame
	// encodings inside it stay stable for vectored writes.
	MaxBatchBytes int

	// MaxBatchFrames caps frames per batch (default 128).
	MaxBatchFrames int

	// MaxQueuedBatches bounds full batches awaiting the flusher before
	// Enqueue blocks (default 4) — backpressure instead of unbounded memory.
	MaxQueuedBatches int

	// OnFlush, when set, observes each written batch (frames, bytes) —
	// the metrics hook for batch-size histograms. Called off the enqueue
	// path, from the flusher goroutine.
	OnFlush func(frames, bytes int)
}

// BatchSink consumes one coalesced batch as an ordered segment list. The
// segments jointly hold whole frames only, so a sink that writes a prefix
// and fails tears at most one frame at the stream position where the
// connection died — identical to a failed WriteFrame. Implementations must
// not retain segs past the call.
type BatchSink interface {
	WriteBatch(segs [][]byte) error
}

// ConnSink adapts a net.Conn (or anything io.Writer-shaped) into a
// BatchSink using net.Buffers, which on *net.TCPConn collapses the batch
// into one writev syscall. The scratch slice is retained so steady-state
// writes allocate nothing.
type ConnSink struct {
	W       net.Conn
	scratch net.Buffers
}

// WriteBatch writes all segments, returning the first error. net.Buffers
// consumes its receiver, so the segment views are rebuilt per call.
func (s *ConnSink) WriteBatch(segs [][]byte) error {
	s.scratch = append(s.scratch[:0], segs...)
	_, err := s.scratch.WriteTo(s.W)
	return err
}

// wbatch is one building batch: a fixed-capacity contiguous buffer plus the
// ordered segment list. Small frames extend the open tail region of buf;
// oversized frames become their own segment. Segments alias buf, whose
// capacity never changes, so they stay valid until the batch is recycled.
type wbatch struct {
	buf    []byte
	open   int // start of the unclosed tail segment within buf
	segs   [][]byte
	frames int
	bytes  int
}

func (b *wbatch) closeOpen() {
	if len(b.buf) > b.open {
		b.segs = append(b.segs, b.buf[b.open:len(b.buf):len(b.buf)])
		b.open = len(b.buf)
	}
}

func (b *wbatch) reset() {
	b.buf = b.buf[:0]
	b.open = 0
	for i := range b.segs {
		b.segs[i] = nil
	}
	b.segs = b.segs[:0]
	b.frames, b.bytes = 0, 0
}

// ErrWriterClosed is returned by Enqueue after Close.
var ErrWriterClosed = errors.New("transport: frame writer closed")

// NewFrameWriter starts a FrameWriter flushing to cfg.Sink. Close releases
// its flusher goroutine.
func NewFrameWriter(cfg FrameWriterConfig) *FrameWriter {
	if cfg.MaxBatchBytes <= 0 {
		cfg.MaxBatchBytes = 8 << 10
	}
	if cfg.MaxBatchFrames <= 0 {
		cfg.MaxBatchFrames = 128
	}
	if cfg.MaxQueuedBatches <= 0 {
		cfg.MaxQueuedBatches = 4
	}
	fw := &FrameWriter{
		cfg:     cfg,
		kick:    make(chan struct{}, 1),
		closeCh: make(chan struct{}),
	}
	fw.idle = sync.NewCond(&fw.mu)
	fw.pool.New = func() any {
		return &wbatch{buf: make([]byte, 0, cfg.MaxBatchBytes), segs: make([][]byte, 0, 8)}
	}
	fw.cur = fw.pool.Get().(*wbatch)
	fw.wg.Add(1)
	go fw.run()
	return fw
}

// Enqueue queues one frame, copying its payload into the batch buffer. The
// caller keeps ownership of f.Payload.
func (fw *FrameWriter) Enqueue(f Frame) error {
	return fw.EnqueueAppend(f.Type, f.Epoch, len(f.Payload), func(dst []byte) {
		copy(dst, f.Payload)
	})
}

// EnqueueAppend queues one frame whose plen-byte payload is produced by fill
// writing directly into reserved batch space — the zero-copy path for
// producers that would otherwise assemble a payload just to have Enqueue
// copy it. fill runs synchronously under the writer lock; it must only write
// dst. fill may be nil when plen is 0.
func (fw *FrameWriter) EnqueueAppend(t byte, epoch uint64, plen int, fill func(dst []byte)) error {
	if plen > MaxFrameSize {
		return ErrFrameTooLarge
	}
	need := frameHeaderSize + plen
	fw.mu.Lock()
	if fw.err != nil {
		err := fw.err
		fw.mu.Unlock()
		return err
	}
	if fw.closed {
		fw.mu.Unlock()
		return ErrWriterClosed
	}
	b := fw.cur
	if b.frames > 0 && (b.bytes+need > cap(b.buf) || b.frames >= fw.cfg.MaxBatchFrames) {
		if !fw.rotateLocked() {
			err := fw.err
			fw.mu.Unlock()
			if err == nil {
				err = ErrWriterClosed
			}
			return err
		}
		b = fw.cur
	}
	if need <= cap(b.buf)-len(b.buf) {
		off := len(b.buf)
		b.buf = b.buf[:off+need]
		putFrameHeader(b.buf[off:], t, epoch, plen)
		if plen > 0 {
			fill(b.buf[off+frameHeaderSize : off+need])
		}
	} else {
		// A single frame larger than the batch buffer: give it a dedicated
		// segment. Rare (failure lists near MaxFrameSize), so the allocation
		// is acceptable.
		seg := make([]byte, need)
		putFrameHeader(seg, t, epoch, plen)
		if plen > 0 {
			fill(seg[frameHeaderSize:])
		}
		b.closeOpen()
		b.segs = append(b.segs, seg)
	}
	b.bytes += need
	b.frames++
	fresh := b.frames == 1
	if b.bytes >= fw.cfg.MaxBatchBytes || b.frames >= fw.cfg.MaxBatchFrames {
		fw.rotateLocked()
	}
	fw.mu.Unlock()
	if fresh {
		// Wake an idle flusher after unlocking, so it does not wake only to
		// block on fw.mu.
		fw.wake()
	}
	return nil
}

// rotateLocked moves the current batch onto the flusher queue and installs a
// fresh one, blocking while the queue is at its backpressure bound. Returns
// false if the writer errored or closed while waiting. Caller holds fw.mu.
func (fw *FrameWriter) rotateLocked() bool {
	for len(fw.queue) >= fw.cfg.MaxQueuedBatches && fw.err == nil && !fw.closed {
		fw.idle.Wait()
	}
	if fw.err != nil || fw.closed {
		return false
	}
	fw.queue = append(fw.queue, fw.cur)
	fw.cur = fw.pool.Get().(*wbatch)
	fw.wake()
	return true
}

// wake nudges the flusher; a pending nudge already covers this one.
func (fw *FrameWriter) wake() {
	select {
	case fw.kick <- struct{}{}:
	default:
	}
}

// run is the flusher: the only goroutine that touches the sink, so batches
// hit the wire strictly in enqueue order.
func (fw *FrameWriter) run() {
	defer fw.wg.Done()
	for {
		select {
		case <-fw.kick:
		case <-fw.closeCh:
			fw.drain()
			return
		}
		fw.drain()
	}
}

// drain writes every queued batch and the building batch, and repeats until
// a pass finds nothing: frames enqueued during one write form the next batch.
func (fw *FrameWriter) drain() {
	for {
		fw.mu.Lock()
		batches := append(fw.spare[:0], fw.queue...)
		clear(fw.queue)
		fw.queue = fw.queue[:0]
		if fw.cur.frames > 0 {
			batches = append(batches, fw.cur)
			fw.cur = fw.pool.Get().(*wbatch)
		}
		if len(batches) == 0 {
			fw.writing = false
			fw.idle.Broadcast()
			fw.mu.Unlock()
			return
		}
		fw.writing = true
		fw.idle.Broadcast() // queue shrank: release backpressured enqueuers
		fw.mu.Unlock()

		for _, b := range batches {
			fw.writeBatch(b)
		}
		clear(batches)
		fw.spare = batches
	}
}

// writeBatch sends one batch to the sink (unless a sticky error already
// stands, in which case the frames are counted as dropped) and recycles it.
func (fw *FrameWriter) writeBatch(b *wbatch) {
	b.closeOpen()
	fw.mu.Lock()
	err := fw.err
	fw.mu.Unlock()
	if err == nil && b.frames > 0 {
		err = fw.cfg.Sink.WriteBatch(b.segs)
		if err != nil {
			fw.mu.Lock()
			fw.err = err
			fw.idle.Broadcast()
			fw.mu.Unlock()
		} else {
			fw.mu.Lock()
			fw.flushes++
			fw.framesOut += uint64(b.frames)
			fw.bytesOut += uint64(b.bytes)
			fw.mu.Unlock()
			if fw.cfg.OnFlush != nil {
				fw.cfg.OnFlush(b.frames, b.bytes)
			}
		}
	} else if err != nil {
		fw.mu.Lock()
		fw.dropped += uint64(b.frames)
		fw.mu.Unlock()
	}
	b.reset()
	fw.pool.Put(b)
}

// Flush blocks until every frame enqueued before the call has been handed to
// the sink (or discarded by a sticky error, which Flush then returns).
func (fw *FrameWriter) Flush() error {
	fw.mu.Lock()
	for (fw.cur.frames > 0 || len(fw.queue) > 0 || fw.writing) && fw.err == nil {
		fw.idle.Wait()
	}
	err := fw.err
	fw.mu.Unlock()
	return err
}

// Close flushes pending frames, stops the flusher and returns the sticky
// error, if any. Idempotent.
func (fw *FrameWriter) Close() error {
	fw.mu.Lock()
	if fw.closed {
		err := fw.err
		fw.mu.Unlock()
		return err
	}
	fw.closed = true
	fw.idle.Broadcast()
	fw.mu.Unlock()
	close(fw.closeCh)
	fw.wg.Wait()
	fw.mu.Lock()
	err := fw.err
	fw.mu.Unlock()
	return err
}

// FrameWriterStats is a point-in-time view of a writer's flush counters.
type FrameWriterStats struct {
	Flushes       uint64 // batches written to the sink
	Frames        uint64 // frames written
	Bytes         uint64 // encoded bytes written
	Dropped       uint64 // frames discarded after a sticky error
	QueueDepth    int    // full batches currently awaiting the flusher
	PendingFrames int    // frames in the building batch
}

// Stats snapshots the writer's counters.
func (fw *FrameWriter) Stats() FrameWriterStats {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return FrameWriterStats{
		Flushes:       fw.flushes,
		Frames:        fw.framesOut,
		Bytes:         fw.bytesOut,
		Dropped:       fw.dropped,
		QueueDepth:    len(fw.queue),
		PendingFrames: fw.cur.frames,
	}
}
