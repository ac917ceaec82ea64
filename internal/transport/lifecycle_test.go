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
// loop and of its children's redial loops. Every lifecycle call and every
// Run must return within lifecycleDeadline, and once all nodes are gone the
// goroutine count must return to where it started.
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
	rng := rand.New(rand.NewSource(20261017))
	start := runtime.NumGoroutine()
	for r := 0; r < rounds && !t.Failed(); r++ {
		lifecycleRound(t, rng, field, sources)
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
