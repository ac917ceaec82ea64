package transport

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/sies/sies/internal/chaos"
)

// chaosPayload derives the expected payload for an epoch: a digest the
// receiver can recompute, so any torn or spliced frame that still parses is
// caught by content, not just by framing.
func chaosPayload(epoch uint64) [sha256.Size]byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], epoch)
	return sha256.Sum256(b[:])
}

// tornFrameCollector accepts writer connections and decodes frames until
// each stream dies, verifying every frame that ReadFrame surfaces. Streams
// are expected to end in EOF / UnexpectedEOF / resets — a re-sending writer
// may duplicate frames, but a frame that parses must verify.
type tornFrameCollector struct {
	t  *testing.T
	ln net.Listener

	mu    sync.Mutex
	seen  map[uint64]int
	conns int
	wg    sync.WaitGroup
}

func newTornFrameCollector(t *testing.T) *tornFrameCollector {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := &tornFrameCollector{t: t, ln: ln, seen: map[uint64]int{}}
	c.wg.Add(1)
	go c.acceptLoop()
	return c
}

func (c *tornFrameCollector) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed: drain done
		}
		c.mu.Lock()
		c.conns++
		c.mu.Unlock()
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			defer conn.Close()
			fr := NewFrameReader(conn)
			for {
				f, err := fr.Read()
				if err != nil {
					// Any stream error is fine — the writer's connection died
					// mid-frame and the tail is discarded. What must never
					// happen is a *successfully parsed* frame with bad content.
					return
				}
				want := chaosPayload(f.Epoch)
				if f.Type != TypePSR || len(f.Payload) != len(want) || string(f.Payload) != string(want[:]) {
					c.t.Errorf("torn frame surfaced: type=%d epoch=%d payload=%x", f.Type, f.Epoch, f.Payload)
					return
				}
				c.mu.Lock()
				c.seen[f.Epoch]++
				c.mu.Unlock()
			}
		}()
	}
}

// close stops accepting once all dialed connections were accepted: closing
// the listener earlier would discard connections still in its backlog, and
// with them frames the writer was told it delivered.
func (c *tornFrameCollector) close(dialed int) (map[uint64]int, int) {
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		accepted := c.conns
		c.mu.Unlock()
		if accepted >= dialed {
			break
		}
		if time.Now().After(deadline) {
			c.t.Errorf("collector accepted %d of %d dialed connections", accepted, dialed)
			break
		}
	}
	c.ln.Close()
	c.wg.Wait()
	return c.seen, c.conns
}

// retryBatchSink writes batches through chaos-injected connections,
// re-dialing and re-sending the whole batch on any error — the redialer
// contract. Receivers may see duplicate frames, never torn ones: each retry
// starts a fresh connection, so a dead stream's tail is simply abandoned.
type retryBatchSink struct {
	dial    func() (net.Conn, error)
	conn    net.Conn
	scratch net.Buffers
	retries int
	dials   int // successful dials
}

func (s *retryBatchSink) WriteBatch(segs [][]byte) error {
	for attempt := 0; attempt < 200; attempt++ {
		if s.conn == nil {
			c, err := s.dial()
			if err != nil {
				time.Sleep(time.Millisecond)
				continue
			}
			s.conn = c
			s.dials++
		}
		// net.Buffers consumes its receiver, so rebuild the view per attempt;
		// the retained scratch keeps this allocation-free at steady state.
		s.scratch = append(s.scratch[:0], segs...)
		if _, err := s.scratch.WriteTo(s.conn); err == nil {
			return nil
		}
		s.retries++
		s.conn.Close()
		s.conn = nil
	}
	return errors.New("retryBatchSink: giving up")
}

// TestFrameWriterNoTornFramesUnderChaos drives a FrameWriter through
// connections that die mid-write (honest short writes delivering a prefix
// plus an error, and resets between batch segments) and asserts the
// receiving ReadFrame never observes a torn frame, while retries still
// deliver every epoch at least once.
func TestFrameWriterNoTornFramesUnderChaos(t *testing.T) {
	collector := newTornFrameCollector(t)
	inj := chaos.New(chaos.Config{
		Seed:              20260807,
		ShortWriteErrProb: 0.08,
		ResetProb:         0.04,
	})
	sink := &retryBatchSink{dial: func() (net.Conn, error) {
		return inj.Dial("tcp", collector.ln.Addr().String())
	}}
	fw := NewFrameWriter(FrameWriterConfig{
		Sink:           sink,
		MaxBatchBytes:  1 << 10, // small batches: many vectored writes, many fault draws
		MaxBatchFrames: 16,
	})
	const epochs = 2000
	for e := uint64(0); e < epochs; e++ {
		p := chaosPayload(e)
		if err := fw.EnqueueAppend(TypePSR, e, len(p), func(dst []byte) { copy(dst, p[:]) }); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.conn != nil {
		sink.conn.Close()
	}
	seen, conns := collector.close(sink.dials)
	if t.Failed() {
		return
	}
	for e := uint64(0); e < epochs; e++ {
		if seen[e] == 0 {
			t.Fatalf("epoch %d never delivered (conns=%d retries=%d)", e, conns, sink.retries)
		}
	}
	if sink.retries == 0 || conns < 2 {
		t.Fatalf("chaos did not bite: %d retries over %d connections", sink.retries, conns)
	}
}

// TestWriteFrameNoTornFramesUnderChaos is the unbatched counterpart: single
// WriteFrame calls with redial-on-error retry across connections that die
// mid-write.
func TestWriteFrameNoTornFramesUnderChaos(t *testing.T) {
	collector := newTornFrameCollector(t)
	inj := chaos.New(chaos.Config{
		Seed:              99,
		ShortWriteErrProb: 0.10,
		ResetProb:         0.05,
	})
	var conn net.Conn
	retries, dials := 0, 0
	const epochs = 1500
	for e := uint64(0); e < epochs; e++ {
		p := chaosPayload(e)
		for attempt := 0; ; attempt++ {
			if attempt > 200 {
				t.Fatalf("epoch %d: giving up after %d attempts", e, attempt)
			}
			if conn == nil {
				c, err := inj.Dial("tcp", collector.ln.Addr().String())
				if err != nil {
					time.Sleep(time.Millisecond)
					continue
				}
				conn = c
				dials++
			}
			if err := WriteFrame(conn, Frame{Type: TypePSR, Epoch: e, Payload: p[:]}); err == nil {
				break
			}
			retries++
			conn.Close()
			conn = nil
		}
	}
	if conn != nil {
		conn.Close()
	}
	seen, conns := collector.close(dials)
	if t.Failed() {
		return
	}
	for e := uint64(0); e < epochs; e++ {
		if seen[e] == 0 {
			t.Fatalf("epoch %d never delivered", e)
		}
	}
	if retries == 0 || conns < 2 {
		t.Fatalf("chaos did not bite: %d retries over %d connections", retries, conns)
	}
}

// TestShortWriteErrConnContract pins the new chaos fault's semantics: the
// reported count matches what the peer can read, the error is ErrReset, and
// the connection is dead afterwards.
func TestShortWriteErrConnContract(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan []byte, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			got <- nil
			return
		}
		defer c.Close()
		b, _ := io.ReadAll(c)
		got <- b
	}()
	inj := chaos.New(chaos.Config{Seed: 7, ShortWriteErrProb: 1})
	conn, err := inj.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	n, err := conn.Write(payload)
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("short write error not surfaced: n=%d err=%v", n, err)
	}
	if n <= 0 || n >= len(payload) {
		t.Fatalf("short write count out of range: %d", n)
	}
	if _, err := conn.Write([]byte("more")); err == nil {
		t.Fatal("connection survived an honest short write")
	}
	delivered := <-got
	if len(delivered) != n || string(delivered) != string(payload[:n]) {
		t.Fatalf("peer saw %d bytes, writer was told %d", len(delivered), n)
	}
}
