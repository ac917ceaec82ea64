package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/sies/sies/internal/race"
)

// memSink collects flushed batches for inspection.
type memSink struct {
	mu      sync.Mutex
	data    bytes.Buffer
	batches int
	failAt  int // fail the n-th WriteBatch (1-based); 0 = never
	calls   int
}

func (s *memSink) WriteBatch(segs [][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if s.failAt > 0 && s.calls >= s.failAt {
		return errors.New("sink: injected failure")
	}
	for _, seg := range segs {
		s.data.Write(seg)
	}
	s.batches++
	return nil
}

func (s *memSink) snapshot() ([]byte, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.data.Bytes()...), s.batches
}

// gateSink holds every batch at a gate until the test opens it. The writer
// flushes as soon as its flusher is free, so a test holds frames back by
// letting one write reach the gate: everything enqueued meanwhile piles up in
// the building batch.
type gateSink struct {
	next    BatchSink
	entered chan struct{} // signalled when a write reaches the gate
	open    chan struct{} // closed to let every write through
}

func newGateSink(next BatchSink) *gateSink {
	return &gateSink{next: next, entered: make(chan struct{}, 1), open: make(chan struct{})}
}

func (g *gateSink) WriteBatch(segs [][]byte) error {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.open
	return g.next.WriteBatch(segs)
}

// readAll decodes every frame from raw, failing the test on any tear.
func readAll(t *testing.T, raw []byte) []Frame {
	t.Helper()
	var out []Frame
	fr := NewFrameReader(bytes.NewReader(raw))
	for {
		f, err := fr.Read()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("decoding flushed stream: %v", err)
		}
		f.Payload = append([]byte(nil), f.Payload...)
		out = append(out, f)
	}
}

// TestFrameWriterCoalesces holds the first write at the gate and checks that
// every frame enqueued meanwhile leaves in one batch, in order.
func TestFrameWriterCoalesces(t *testing.T) {
	sink := &memSink{}
	gate := newGateSink(sink)
	fw := NewFrameWriter(FrameWriterConfig{Sink: gate})
	const n = 50
	for i := 0; i < n; i++ {
		if err := fw.Enqueue(Frame{Type: TypePSR, Epoch: uint64(i), Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-gate.entered // the flusher is busy with frame 0
		}
	}
	close(gate.open)
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	raw, batches := sink.snapshot()
	frames := readAll(t, raw)
	if len(frames) != n {
		t.Fatalf("decoded %d frames, want %d", len(frames), n)
	}
	for i, f := range frames {
		if f.Epoch != uint64(i) || f.Type != TypePSR || len(f.Payload) != 1 || f.Payload[0] != byte(i) {
			t.Fatalf("frame %d mangled: %+v", i, f)
		}
	}
	if batches >= n {
		t.Fatalf("no coalescing: %d batches for %d frames", batches, n)
	}
	if batches != 2 {
		t.Fatalf("%d batches, want 2: frame 0 alone, then the %d held frames", batches, n-1)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFrameWriterOrderUnderLoad hammers the writer from several goroutines
// and checks per-producer frame order survives batching (epochs from one
// producer must arrive monotonically).
func TestFrameWriterOrderUnderLoad(t *testing.T) {
	sink := &memSink{}
	fw := NewFrameWriter(FrameWriterConfig{
		Sink: sink, MaxBatchBytes: 1 << 10, MaxBatchFrames: 7,
	})
	const producers, perProducer = 4, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				err := fw.EnqueueAppend(byte(p+1), uint64(i), 2, func(dst []byte) {
					dst[0], dst[1] = byte(p), byte(i)
				})
				if err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	raw, _ := sink.snapshot()
	frames := readAll(t, raw)
	if len(frames) != producers*perProducer {
		t.Fatalf("decoded %d frames, want %d", len(frames), producers*perProducer)
	}
	next := make([]uint64, producers+1)
	for _, f := range frames {
		p := int(f.Type)
		if f.Epoch != next[p] {
			t.Fatalf("producer %d: epoch %d arrived, want %d", p, f.Epoch, next[p])
		}
		next[p]++
	}
}

// TestFrameWriterOversizedFrame routes a frame bigger than the batch buffer
// through the dedicated-segment path without tearing neighbours.
func TestFrameWriterOversizedFrame(t *testing.T) {
	sink := &memSink{}
	fw := NewFrameWriter(FrameWriterConfig{Sink: sink, MaxBatchBytes: 256})
	big := bytes.Repeat([]byte{0xAB}, 4096)
	if err := fw.Enqueue(Frame{Type: TypePSR, Epoch: 1, Payload: []byte("small")}); err != nil {
		t.Fatal(err)
	}
	if err := fw.Enqueue(Frame{Type: TypeFailure, Epoch: 2, Payload: big}); err != nil {
		t.Fatal(err)
	}
	if err := fw.Enqueue(Frame{Type: TypePSR, Epoch: 3, Payload: []byte("after")}); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	raw, _ := sink.snapshot()
	frames := readAll(t, raw)
	if len(frames) != 3 {
		t.Fatalf("decoded %d frames, want 3", len(frames))
	}
	if !bytes.Equal(frames[1].Payload, big) || frames[2].Epoch != 3 {
		t.Fatal("oversized frame mangled its batch")
	}
}

// TestFrameWriterStickyError: after the sink fails, enqueues report the
// error and nothing further reaches the sink.
func TestFrameWriterStickyError(t *testing.T) {
	sink := &memSink{failAt: 1}
	fw := NewFrameWriter(FrameWriterConfig{Sink: sink})
	defer fw.Close()
	if err := fw.Enqueue(Frame{Type: TypePSR, Epoch: 1, Payload: []byte("x")}); err != nil {
		t.Fatal(err) // the failure lands at flush time, not enqueue time
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := fw.Enqueue(Frame{Type: TypePSR, Epoch: 2, Payload: []byte("y")}); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sink error never became sticky")
		}
		time.Sleep(time.Millisecond)
	}
	if raw, _ := sink.snapshot(); len(raw) != 0 {
		t.Fatalf("failed sink still accumulated %d bytes", len(raw))
	}
}

// TestFrameWriterConnSink round-trips a batch through a real TCP loopback
// pair via the vectored ConnSink.
func TestFrameWriterConnSink(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type result struct {
		frames []Frame
		err    error
	}
	got := make(chan result, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			got <- result{err: err}
			return
		}
		defer c.Close()
		var frames []Frame
		fr := NewFrameReader(c)
		for len(frames) < 200 {
			f, err := fr.Read()
			if err != nil {
				got <- result{err: err}
				return
			}
			f.Payload = append([]byte(nil), f.Payload...)
			frames = append(frames, f)
		}
		got <- result{frames: frames}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fw := NewFrameWriter(FrameWriterConfig{Sink: &ConnSink{W: conn}})
	for i := 0; i < 200; i++ {
		if err := fw.Enqueue(Frame{Type: TypePSR, Epoch: uint64(i), Payload: []byte(fmt.Sprintf("p%03d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	r := <-got
	if r.err != nil {
		t.Fatal(r.err)
	}
	for i, f := range r.frames {
		if f.Epoch != uint64(i) || string(f.Payload) != fmt.Sprintf("p%03d", i) {
			t.Fatalf("frame %d corrupted over TCP: %+v", i, f)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
}

// devNullSink discards batches; it keeps the steady-state alloc gate honest
// by still walking every segment.
type devNullSink struct{ n int }

func (s *devNullSink) WriteBatch(segs [][]byte) error {
	for _, seg := range segs {
		s.n += len(seg)
	}
	return nil
}

// TestFrameWriterEnqueueZeroAlloc is the acceptance gate: the steady-state
// encode path (EnqueueAppend into a pooled batch buffer) allocates nothing.
// The flusher is held at the gate, so every measured frame lands in the
// building batch.
func TestFrameWriterEnqueueZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation inhibits stack allocation; gate runs in the non-race suite")
	}
	gate := newGateSink(&devNullSink{})
	fw := NewFrameWriter(FrameWriterConfig{
		Sink: gate, MaxBatchBytes: 1 << 20, MaxBatchFrames: 1 << 20,
	})
	defer func() {
		close(gate.open)
		fw.Close()
	}()
	payload := bytes.Repeat([]byte{0x5A}, 36+4)
	fill := func(dst []byte) { copy(dst, payload) }
	var epoch uint64
	if err := fw.EnqueueAppend(TypePSR, epoch, len(payload), fill); err != nil {
		t.Fatal(err)
	}
	<-gate.entered
	allocs := testing.AllocsPerRun(2000, func() {
		epoch++
		if err := fw.EnqueueAppend(TypePSR, epoch, len(payload), fill); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("EnqueueAppend allocates %.1f/op, want 0", allocs)
	}
}

// TestWriteFramePooledZeroAlloc gates the non-batched path too: WriteFrame's
// encode buffer comes from the pool.
func TestWriteFramePooledZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation inhibits stack allocation; gate runs in the non-race suite")
	}
	payload := bytes.Repeat([]byte{0x5A}, 36+4)
	f := Frame{Type: TypePSR, Epoch: 42, Payload: payload}
	allocs := testing.AllocsPerRun(2000, func() {
		if err := WriteFrame(io.Discard, f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WriteFrame allocates %.1f/op, want 0", allocs)
	}
}

// TestFrameReaderReuseZeroAlloc gates the receive side: FrameReader recycles
// its buffer across frames.
func TestFrameReaderReuseZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation inhibits stack allocation; gate runs in the non-race suite")
	}
	var stream bytes.Buffer
	f := Frame{Type: TypePSR, Epoch: 7, Payload: bytes.Repeat([]byte{1}, 36+4)}
	for i := 0; i < 4000; i++ {
		if err := WriteFrame(&stream, f); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&stream)
	if _, err := fr.Read(); err != nil { // warm the buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := fr.Read(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("FrameReader.Read allocates %.1f/op, want 0", allocs)
	}
}

// TestFrameReaderRejectsBeforeAlloc: a hostile length prefix above the
// configured max is rejected without the reader growing its buffer.
func TestFrameReaderRejectsBeforeAlloc(t *testing.T) {
	var stream bytes.Buffer
	if err := WriteFrame(&stream, Frame{Type: TypePSR, Epoch: 1, Payload: bytes.Repeat([]byte{1}, 1<<12)}); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&stream)
	fr.MaxPayload = 64
	if _, err := fr.Read(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame accepted: %v", err)
	}
	if cap(fr.buf) > 1024 {
		t.Fatalf("reader allocated %d bytes for a rejected frame", cap(fr.buf))
	}
}
