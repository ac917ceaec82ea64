package transport

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"runtime"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	"github.com/sies/sies/internal/core"
	"github.com/sies/sies/internal/prf"
	"github.com/sies/sies/internal/uint256"
)

// lifecycleDeadline bounds every Close, Crash and Run exit in
// TestLifecycleCloseRaces. Each of them finishes in milliseconds when it
// terminates at all; the bound only has to separate "slow" from "hung".
const lifecycleDeadline = 5 * time.Second

// within runs fn and fails the test with a goroutine dump if it has not
// returned after lifecycleDeadline.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(lifecycleDeadline):
		t.Fatalf("%s did not return within %v\n%s", what, lifecycleDeadline, goroutineDump())
	}
}

func goroutineDump() string {
	var b bytes.Buffer
	pprof.Lookup("goroutine").WriteTo(&b, 1)
	return b.String()
}

// stubParent is a minimal upstream: it answers every hello with a hello-ack
// and discards what follows. cut severs its live links and stops accepting,
// which sends the aggregator's upstream into its redial loop.
type stubParent struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

func newStubParent(t *testing.T) *stubParent {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &stubParent{ln: ln}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			p.conns = append(p.conns, c)
			p.mu.Unlock()
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				if _, err := ReadFrame(c); err != nil {
					return
				}
				if WriteFrame(c, Frame{Type: TypeHello}) != nil {
					return
				}
				io.Copy(io.Discard, c)
			}()
		}
	}()
	return p
}

func (p *stubParent) cut() {
	p.ln.Close()
	p.mu.Lock()
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

func (p *stubParent) close() {
	p.cut()
	p.wg.Wait()
}

// TestLifecycleCloseRaces fires Close or Crash at random points of an
// aggregator's accept → handshake → attach sequence, of its upstream redial
// loop and of its children's redial loops, and of a querier's accept →
// hello → pipelined serve → verify/commit sequence. Every lifecycle call and
// every Run must return within lifecycleDeadline, and once all nodes are
// gone the goroutine count must return to where it started.
func TestLifecycleCloseRaces(t *testing.T) {
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	q, sources, err := core.Setup(4)
	if err != nil {
		t.Fatal(err)
	}
	field := q.Params().Field()
	reports := rootReports(t, field, sources, 20)
	rng := rand.New(rand.NewSource(20261017))
	start := runtime.NumGoroutine()
	for r := 0; r < rounds && !t.Failed(); r++ {
		lifecycleRound(t, rng, field, sources)
		querierLifecycleRound(t, rng, q, reports)
	}
	deadline := time.Now().Add(lifecycleDeadline)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines remain after %d rounds, started with %d\n%s",
				runtime.NumGoroutine(), rounds, start, goroutineDump())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// lifecycleRound builds one standby aggregator under a fake parent, races
// children attaching to it against a randomly timed Close or Crash, and
// tears everything down under the deadline.
func lifecycleRound(t *testing.T, rng *rand.Rand, field *uint256.Field, sources []*core.Source) {
	parent := newStubParent(t)
	defer parent.close()
	redial := Backoff{Initial: time.Millisecond, Max: 5 * time.Millisecond, Rand: rand.New(rand.NewSource(rng.Int63()))}
	a, err := NewAggregatorNode(AggregatorConfig{
		ListenAddr: "127.0.0.1:0", ParentAddr: parent.ln.Addr().String(),
		AcceptNew: true, Timeout: 50 * time.Millisecond,
		HandshakeTimeout: time.Second, Backoff: redial,
	}, field)
	if err != nil {
		t.Fatal(err)
	}
	addr := a.ln.Addr().String()
	runDone := make(chan error, 1)
	go func() { runDone <- a.Run() }()

	// Children: source nodes reporting until closed, and raw connections
	// that stall for a random moment before their hello, so the kill can
	// land between accept and handshake.
	var kids sync.WaitGroup
	var mu sync.Mutex
	var nodes []*SourceNode
	var raws []net.Conn
	for i, src := range sources {
		delay := time.Duration(rng.Intn(3000)) * time.Microsecond
		kids.Add(1)
		if i%2 == 0 {
			go func(src *core.Source) {
				defer kids.Done()
				time.Sleep(delay)
				n, err := DialSourceWith(SourceConfig{ParentAddr: addr, Backoff: redial, HandshakeTimeout: time.Second}, src)
				if err != nil {
					return // the aggregator was already gone
				}
				mu.Lock()
				nodes = append(nodes, n)
				mu.Unlock()
				for e := prf.Epoch(1); e <= 20; e++ {
					if n.Report(e, uint64(e)) != nil {
						return
					}
					time.Sleep(200 * time.Microsecond)
				}
			}(src)
			continue
		}
		go func(id int) {
			defer kids.Done()
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return
			}
			mu.Lock()
			raws = append(raws, c)
			mu.Unlock()
			time.Sleep(delay)
			if WriteFrame(c, Frame{Type: TypeHello, Payload: core.EncodeContributors([]int{id})}) != nil {
				return
			}
			c.SetReadDeadline(time.Now().Add(time.Second))
			if _, err := ReadFrame(c); err != nil {
				return
			}
			for e := uint64(1); e <= 20; e++ {
				if WriteFrame(c, Frame{Type: TypeFailure, Epoch: e, Payload: core.EncodeContributors(nil)}) != nil {
					return
				}
			}
		}(src.ID())
	}

	time.Sleep(time.Duration(rng.Intn(4000)) * time.Microsecond)
	if rng.Intn(3) == 0 {
		// Upstream redial: the parent vanishes, so the aggregator's next
		// upstream write spins in its backoff loop.
		parent.cut()
		time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
	}
	if rng.Intn(2) == 0 {
		within(t, "aggregator Crash", a.Crash)
	} else {
		within(t, "aggregator Close", func() { a.Close() })
	}
	within(t, "aggregator Run", func() { <-runDone })
	within(t, "children", kids.Wait)

	// Sources whose parent just died are in, or about to enter, their redial
	// loop: Close must not wait out the backoff budget.
	for _, n := range nodes {
		within(t, "source Close", func() { n.Close() })
	}
	for _, c := range raws {
		c.Close()
	}
}

// rootReports builds the frames a root aggregator sends for epochs 1..n:
// the merged PSR of every source.
func rootReports(t *testing.T, field *uint256.Field, sources []*core.Source, n int) []Frame {
	agg := core.NewAggregator(field)
	frames := make([]Frame, n)
	for e := range frames {
		epoch := prf.Epoch(e + 1)
		st := agg.NewMerge()
		for _, src := range sources {
			psr, err := src.Encrypt(epoch, uint64(e))
			if err != nil {
				t.Fatal(err)
			}
			st.Add(psr)
		}
		frames[e] = Frame{Type: TypePSR, Epoch: uint64(epoch), Payload: EncodeReport(st.Final(), nil)}
	}
	return frames
}

// querierLifecycleRound runs a querier, durable in half the rounds, under two
// raw roots: each dials at a random moment and stalls before its hello, so
// the kill can land between accept and hello, then streams verified epochs.
// A root that finishes either hangs up (the querier goes back to accept the
// next one) or keeps reading acks until the querier hangs up.
func querierLifecycleRound(t *testing.T, rng *rand.Rand, q *core.Querier, reports []Frame) {
	cfg := QuerierConfig{ListenAddr: "127.0.0.1:0", Schedule: core.ScheduleConfig{Prefetch: true}}
	if rng.Intn(2) == 0 {
		cfg.StateDir = t.TempDir()
	}
	qn, err := NewQuerierNodeConfig(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	addr := qn.Addr()
	runDone := make(chan error, 1)
	go func() { runDone <- qn.Run() }()
	drained := make(chan struct{})
	go func() {
		for range qn.Results {
		}
		close(drained)
	}()

	all := make([]int, q.Params().N())
	for i := range all {
		all[i] = i
	}
	hello := Frame{Type: TypeHello, Payload: core.EncodeContributors(all)}
	var roots sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	for r := 0; r < 2; r++ {
		delay := time.Duration(rng.Intn(3000)) * time.Microsecond
		stall := time.Duration(rng.Intn(2000)) * time.Microsecond
		hangUp := rng.Intn(2) == 0
		roots.Add(1)
		go func() {
			defer roots.Done()
			time.Sleep(delay)
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return // the querier was already gone
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			time.Sleep(stall)
			if WriteFrame(c, hello) != nil {
				return
			}
			if _, err := ReadFrame(c); err != nil {
				return
			}
			for _, f := range reports {
				if WriteFrame(c, f) != nil {
					return
				}
				time.Sleep(100 * time.Microsecond)
			}
			if hangUp {
				c.Close()
				return
			}
			io.Copy(io.Discard, c)
		}()
	}

	time.Sleep(time.Duration(rng.Intn(5000)) * time.Microsecond)
	if rng.Intn(2) == 0 {
		within(t, "querier Crash", qn.Crash)
	} else {
		within(t, "querier Close", func() { qn.Close() })
	}
	within(t, "querier Run", func() { <-runDone })
	within(t, "querier Results", func() { <-drained })
	within(t, "roots", roots.Wait)
	for _, c := range conns {
		c.Close()
	}
}

// gatedListener holds each accepted connection until released, pinning the
// moment between a querier's Accept and its bookkeeping of the new root.
type gatedListener struct {
	net.Listener
	accepted chan struct{}
	release  chan struct{}
}

func (l *gatedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted <- struct{}{}
		<-l.release
	}
	return c, err
}

// TestQuerierCloseDuringAccept closes a querier after Accept has returned a
// root but before Run has registered it. Close finds no root to hang up on,
// so Run must drop the connection itself; serving it would wait forever on a
// hello that never comes.
func TestQuerierCloseDuringAccept(t *testing.T) {
	q, _, err := core.Setup(2)
	if err != nil {
		t.Fatal(err)
	}
	qn, err := NewQuerierNode("127.0.0.1:0", q)
	if err != nil {
		t.Fatal(err)
	}
	gl := &gatedListener{Listener: qn.ln, accepted: make(chan struct{}), release: make(chan struct{})}
	qn.ln = gl
	runDone := make(chan error, 1)
	go func() { runDone <- qn.Run() }()
	go func() {
		for range qn.Results {
		}
	}()
	c, err := net.Dial("tcp", qn.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	<-gl.accepted
	within(t, "querier Close", func() { qn.Close() })
	close(gl.release)
	within(t, "querier Run", func() {
		if err := <-runDone; err != nil {
			t.Errorf("Run: %v", err)
		}
	})
}

// TestQuerierCloseJournalsDrainedEpochs closes a durable querier while its
// root streams epochs. Run drains the epochs it has already read after Close,
// and each of them must be journaled like any other: no append may fail, and
// a node restarted from the same directory must know every epoch the first
// one emitted, so it can never answer one of them again.
func TestQuerierCloseJournalsDrainedEpochs(t *testing.T) {
	q, sources, err := core.Setup(4)
	if err != nil {
		t.Fatal(err)
	}
	reports := rootReports(t, q.Params().Field(), sources, 300)
	cfg := QuerierConfig{ListenAddr: "127.0.0.1:0", StateDir: t.TempDir()}
	qn, err := NewQuerierNodeConfig(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- qn.Run() }()

	c, err := net.Dial("tcp", qn.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	all := make([]int, q.Params().N())
	for i := range all {
		all[i] = i
	}
	if err := WriteFrame(c, Frame{Type: TypeHello, Payload: core.EncodeContributors(all)}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(c); err != nil {
		t.Fatal(err)
	}
	go io.Copy(io.Discard, c)
	go func() {
		for _, f := range reports {
			if WriteFrame(c, f) != nil {
				return
			}
		}
	}()

	var emitted []uint64
	first := <-qn.Results
	emitted = append(emitted, uint64(first.Epoch))
	within(t, "querier Close", func() { qn.Close() })
	within(t, "querier Results", func() {
		for res := range qn.Results {
			emitted = append(emitted, uint64(res.Epoch))
		}
	})
	within(t, "querier Run", func() {
		if err := <-runDone; err != nil {
			t.Errorf("Run: %v", err)
		}
	})
	if n := qn.DurabilityStats().JournalErrors; n != 0 {
		t.Fatalf("%d journal appends failed while Run drained after Close (%d epochs emitted)", n, len(emitted))
	}

	qn2, err := NewQuerierNodeConfig(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	defer qn2.Close()
	qn2.mu.Lock()
	defer qn2.mu.Unlock()
	for _, e := range emitted {
		if !qn2.committed.has(e) {
			t.Fatalf("epoch %d was emitted before Close but is not in the recovered journal", e)
		}
	}
}
