package transport

import (
	"net"
	"testing"
	"time"

	"github.com/sies/sies/internal/core"
	"github.com/sies/sies/internal/prf"
)

// fakeParent serves one listener as a hello-acking parent: every accepted
// connection's hello lands on hellos, every later frame on frames, and the
// accepted conns themselves on conns so tests can kill them.
func fakeParent(ln net.Listener, conns chan net.Conn, hellos, frames chan Frame) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conns <- conn
		go func(c net.Conn) {
			f, err := ReadFrame(c)
			if err != nil || f.Type != TypeHello {
				c.Close()
				return
			}
			hellos <- f
			if err := WriteFrame(c, Frame{Type: TypeHello}); err != nil {
				return
			}
			for {
				f, err := ReadFrame(c)
				if err != nil {
					return
				}
				frames <- f
			}
		}(conn)
	}
}

func recvFrame(t *testing.T, ch chan Frame, what string) Frame {
	t.Helper()
	select {
	case f := <-ch:
		return f
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return Frame{}
	}
}

// dialChildFenced is dialChild with an explicit fence epoch in the hello: the
// child declares it may already have handed epochs at or below the fence to a
// previous parent.
func dialChildFenced(t *testing.T, addr string, covers []int, fence uint64) (net.Conn, uint64) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, Frame{Type: TypeHello, Epoch: fence, Payload: core.EncodeContributors(covers)}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	ack, err := ReadFrame(conn)
	if err != nil || ack.Type != TypeHello {
		t.Fatalf("hello-ack: %+v (%v)", ack, err)
	}
	conn.SetReadDeadline(time.Time{})
	return conn, ack.Epoch
}

// TestSourceFailoverEscalatesToRankedParent pins the failover-dialing
// contract: when the first-ranked parent dies and the per-address backoff
// budget exhausts, the source escalates to the next candidate, re-running the
// hello handshake with a fence covering every epoch it attempted at the dead
// parent, and traffic resumes there.
func TestSourceFailoverEscalatesToRankedParent(t *testing.T) {
	_, sources, err := core.Setup(1)
	if err != nil {
		t.Fatal(err)
	}
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lnA.Close()
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lnB.Close()

	connsA, hellosA, framesA := make(chan net.Conn, 4), make(chan Frame, 4), make(chan Frame, 256)
	connsB, hellosB, framesB := make(chan net.Conn, 4), make(chan Frame, 4), make(chan Frame, 256)
	go fakeParent(lnA, connsA, hellosA, framesA)
	go fakeParent(lnB, connsB, hellosB, framesB)

	src, err := DialSourceWith(SourceConfig{
		ParentAddrs: []string{lnA.Addr().String(), lnB.Addr().String()},
		Backoff: Backoff{
			Initial: 2 * time.Millisecond, Max: 10 * time.Millisecond,
			MaxAttempts: 2, Seed: 1,
		},
	}, sources[0])
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	recvFrame(t, hellosA, "hello at parent A")
	cA := <-connsA
	if err := src.Report(1, 100); err != nil {
		t.Fatal(err)
	}
	if f := recvFrame(t, framesA, "epoch 1 at parent A"); f.Type != TypePSR || f.Epoch != 1 {
		t.Fatalf("parent A got type %d epoch %d, want PSR epoch 1", f.Type, f.Epoch)
	}

	// Parent A dies for good. Subsequent reports burn the per-address budget
	// (2 attempts) and must escalate to parent B. The first write after the
	// kill may be swallowed by the kernel's send buffer before the RST lands,
	// so reports keep flowing until the redialer observes the failure.
	cA.Close()
	lnA.Close()
	epoch := prf.Epoch(2)
	deadline := time.Now().Add(10 * time.Second)
	for src.Failovers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("source never escalated to the second-ranked parent")
		}
		if err := src.Report(epoch, 100); err != nil {
			t.Fatalf("report during failover: %v", err)
		}
		epoch++
		time.Sleep(5 * time.Millisecond)
	}

	hb := recvFrame(t, hellosB, "hello at parent B")
	if hb.Epoch < 1 {
		t.Fatalf("failover hello fence = %d: must cover epoch 1 attempted at the dead parent", hb.Epoch)
	}
	// Traffic resumes at B.
	var got Frame
	for got.Type != TypePSR {
		got = recvFrame(t, framesB, "PSR at parent B")
	}
	if got.Epoch <= 1 {
		t.Fatalf("parent B received epoch %d, want a post-failover epoch", got.Epoch)
	}
	if src.Failovers() < 1 {
		t.Fatalf("Failovers() = %d, want >= 1", src.Failovers())
	}
}

// aggHarness wires one aggregator to a fake upstream parent and returns the
// running node plus the parent-side conn for upstream assertions.
type aggHarness struct {
	node    *AggregatorNode
	addr    string // the aggregator's listen address
	parent  net.Conn
	runDone chan error
}

func startAggWithFakeParent(t *testing.T, cfg AggregatorConfig, dialChildren func(addr string)) *aggHarness {
	t.Helper()
	parentLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { parentLn.Close() })
	cfg.ParentAddr = parentLn.Addr().String()
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = freeAddr(t)
	}

	q, _, err := core.Setup(1)
	if err != nil {
		t.Fatal(err)
	}
	type built struct {
		node *AggregatorNode
		err  error
	}
	builtCh := make(chan built, 1)
	go func() {
		node, err := NewAggregatorNode(cfg, q.Params().Field())
		builtCh <- built{node, err}
	}()
	if dialChildren != nil {
		time.Sleep(50 * time.Millisecond)
		dialChildren(cfg.ListenAddr)
	}
	parent, err := parentLn.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { parent.Close() })
	hello := readUpstream(t, parent)
	if hello.Type != TypeHello {
		t.Fatalf("expected upstream hello, got type %d", hello.Type)
	}
	if err := WriteFrame(parent, Frame{Type: TypeHello}); err != nil {
		t.Fatal(err)
	}
	b := <-builtCh
	if b.err != nil {
		t.Fatal(b.err)
	}
	h := &aggHarness{node: b.node, addr: cfg.ListenAddr, parent: parent, runDone: make(chan error, 1)}
	go func() { h.runDone <- h.node.Run() }()
	return h
}

// waitCounter polls an obs counter until it reaches want or the deadline
// passes — event-loop processing of a raw frame is asynchronous to the test.
func waitCounter(t *testing.T, read func() uint64, want uint64, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for read() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want >= %d", what, read(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAggregatorFenceDropsStaleEpochs is the stale-connection regression for
// re-parenting: a child that re-attaches with a fence epoch (it may have
// handed epochs at or below the fence to another parent) must have exactly
// those epochs dropped, so no (source, epoch) contribution can travel two
// paths. Epochs above the fence flow normally.
func TestAggregatorFenceDropsStaleEpochs(t *testing.T) {
	q, sources, err := core.Setup(1)
	if err != nil {
		t.Fatal(err)
	}
	field := q.Params().Field()

	var c0 net.Conn
	h := startAggWithFakeParent(t, AggregatorConfig{
		NumChildren: 1, Timeout: 500 * time.Millisecond, ReconnectWindow: 5 * time.Second,
	}, func(addr string) {
		c0, _ = dialChild(t, addr, []int{0})
	})

	sendPSR(t, c0, sources[0], 1, 100)
	if f := readUpstream(t, h.parent); f.Type != TypePSR || f.Epoch != 1 {
		t.Fatalf("flush 1: type %d epoch %d", f.Type, f.Epoch)
	}
	c0.Close()

	// The child returns from a failover excursion: its hello fences epochs
	// <= 3 (attempted toward another parent while away).
	c0b, resync := dialChildFenced(t, h.addr, []int{0}, 3)
	defer c0b.Close()
	if resync != 1 {
		t.Fatalf("resync after reattach = %d, want 1", resync)
	}
	sendPSR(t, c0b, sources[0], 2, 200) // at or below fence: dropped
	sendPSR(t, c0b, sources[0], 3, 300) // at the fence: dropped
	sendPSR(t, c0b, sources[0], 4, 400) // above the fence: flows

	f := readUpstream(t, h.parent)
	if f.Type != TypePSR || f.Epoch != 4 {
		t.Fatalf("post-fence flush: type %d epoch %d, want PSR epoch 4", f.Type, f.Epoch)
	}
	psr, failed, err := decodeReport(f.Payload, field, DefaultMaxSources)
	if err != nil || len(failed) != 0 {
		t.Fatalf("epoch 4 report: failed %v (%v)", failed, err)
	}
	if res, err := q.Evaluate(4, psr); err != nil || res.Sum != 400 {
		t.Fatalf("epoch 4 evaluation: %+v (%v)", res, err)
	}
	waitCounter(t, h.node.obs.fenceDrops.Value, 2, "fence drops")

	c0b.Close()
	h.node.Close()
	<-h.runDone
}

// TestAcceptNewStealsCoverage pins the re-homing steal semantics at a
// failover target: a new child whose hello claims ids an existing slot still
// holds takes them over; the stale slot shrinks (or empties and departs), and
// zombie reports from emptied slots are dropped, never merged.
func TestAcceptNewStealsCoverage(t *testing.T) {
	q, sources, err := core.Setup(2)
	if err != nil {
		t.Fatal(err)
	}
	field := q.Params().Field()
	merge := core.NewAggregator(field)

	var cX net.Conn
	h := startAggWithFakeParent(t, AggregatorConfig{
		NumChildren: 1, AcceptNew: true, Timeout: 2 * time.Second, ReconnectWindow: 5 * time.Second,
	}, func(addr string) {
		cX, _ = dialChild(t, addr, []int{0, 1})
	})
	defer cX.Close()

	// Epoch 1: X covers both sources and reports their merged PSR.
	psr0, _ := sources[0].Encrypt(1, 100)
	psr1, _ := sources[1].Encrypt(1, 900)
	if err := WriteFrame(cX, Frame{Type: TypePSR, Epoch: 1, Payload: encodeReport(merge.Merge(psr0, psr1), nil)}); err != nil {
		t.Fatal(err)
	}
	f := readUpstream(t, h.parent)
	psr, failed, err := decodeReport(f.Payload, field, DefaultMaxSources)
	if err != nil || f.Epoch != 1 || len(failed) != 0 {
		t.Fatalf("flush 1: epoch %d failed %v (%v)", f.Epoch, failed, err)
	}
	if res, err := q.Evaluate(1, psr); err != nil || res.Sum != 1000 {
		t.Fatalf("epoch 1: %+v (%v)", res, err)
	}

	// Source 0 re-homes here directly: its hello steals id 0 from X's slot.
	cY, _ := dialChild(t, h.addr, []int{0})
	defer cY.Close()
	waitCounter(t, h.node.obs.steals.Value, 1, "steals after Y")

	// Epoch 2 assembles from the post-steal slots: X now vouches only for
	// source 1, Y for source 0.
	sendPSR(t, cY, sources[0], 2, 10)
	sendPSR(t, cX, sources[1], 2, 20)
	f = readUpstream(t, h.parent)
	psr, failed, err = decodeReport(f.Payload, field, DefaultMaxSources)
	if err != nil || f.Epoch != 2 || len(failed) != 0 {
		t.Fatalf("flush 2: epoch %d failed %v (%v)", f.Epoch, failed, err)
	}
	if res, err := q.Evaluate(2, psr); err != nil || res.Sum != 30 {
		t.Fatalf("epoch 2: %+v (%v)", res, err)
	}

	// A whole-subtree re-home: Z's hello claims the full set, stealing from
	// both X and Y. Their slots empty and depart; they are zombies now, and
	// their late reports must be dropped, not merged.
	cZ, _ := dialChild(t, h.addr, []int{0, 1})
	defer cZ.Close()
	waitCounter(t, h.node.obs.steals.Value, 2, "steals after Z")

	sendPSR(t, cX, sources[1], 3, 7777) // zombie: slot coverage is gone
	sendPSR(t, cY, sources[0], 3, 8888) // zombie too
	waitCounter(t, h.node.obs.staleDrops.Value, 2, "stale drops")
	psr0, _ = sources[0].Encrypt(3, 1)
	psr1, _ = sources[1].Encrypt(3, 2)
	if err := WriteFrame(cZ, Frame{Type: TypePSR, Epoch: 3, Payload: encodeReport(merge.Merge(psr0, psr1), nil)}); err != nil {
		t.Fatal(err)
	}
	f = readUpstream(t, h.parent)
	psr, failed, err = decodeReport(f.Payload, field, DefaultMaxSources)
	if err != nil || f.Epoch != 3 || len(failed) != 0 {
		t.Fatalf("flush 3: epoch %d failed %v (%v)", f.Epoch, failed, err)
	}
	if res, err := q.Evaluate(3, psr); err != nil || res.Sum != 3 {
		t.Fatalf("epoch 3 must hold only the re-homed slot's data: %+v (%v)", res, err)
	}

	h.node.Close()
	<-h.runDone
}

// TestMidStreamHelloOrdersLaterFrames sends a coverage-growing hello and the
// first report under the new coverage in one write, as a coalescing child
// does. The aggregator must apply the hello before it ingests the report:
// attributed to the old coverage, the report's second source would read as
// failed while its data is in the PSR, and the flush would not verify.
func TestMidStreamHelloOrdersLaterFrames(t *testing.T) {
	q, sources, err := core.Setup(2)
	if err != nil {
		t.Fatal(err)
	}
	field := q.Params().Field()
	merge := core.NewAggregator(field)

	var cX, cY net.Conn
	h := startAggWithFakeParent(t, AggregatorConfig{
		NumChildren: 2, Timeout: 500 * time.Millisecond, ReconnectWindow: 5 * time.Second,
	}, func(addr string) {
		cX, _ = dialChild(t, addr, []int{0})
		cY, _ = dialChild(t, addr, []int{1})
	})
	defer cX.Close()
	defer cY.Close()

	psr0, _ := sources[0].Encrypt(1, 100)
	psr1, _ := sources[1].Encrypt(1, 900)
	batch := AppendFrame(nil, Frame{Type: TypeHello, Payload: core.EncodeContributors([]int{0, 1})})
	batch = AppendFrame(batch, Frame{Type: TypePSR, Epoch: 1, Payload: encodeReport(merge.Merge(psr0, psr1), nil)})
	if _, err := cY.Write(batch); err != nil {
		t.Fatal(err)
	}
	f := readUpstream(t, h.parent)
	psr, failed, err := decodeReport(f.Payload, field, DefaultMaxSources)
	if err != nil || f.Epoch != 1 || len(failed) != 0 {
		t.Fatalf("flush 1: epoch %d failed %v (%v), want no failed source", f.Epoch, failed, err)
	}
	if res, err := q.Evaluate(1, psr); err != nil || res.Sum != 1000 {
		t.Fatalf("epoch 1: %+v (%v)", res, err)
	}
	h.node.Close()
	<-h.runDone
}

// TestAggregatorLeaveDrainsSlot pins graceful departure: a child's leave
// notice shrinks the aggregator's coverage, relays upstream ahead of any
// later flush, and later epochs settle over the remaining children with the
// leaver neither merged nor listed as failed.
func TestAggregatorLeaveDrainsSlot(t *testing.T) {
	q, sources, err := core.Setup(2)
	if err != nil {
		t.Fatal(err)
	}
	field := q.Params().Field()

	var c0, c1 net.Conn
	h := startAggWithFakeParent(t, AggregatorConfig{
		NumChildren: 2, Timeout: 500 * time.Millisecond, ReconnectWindow: 5 * time.Second,
	}, func(addr string) {
		c0, _ = dialChild(t, addr, []int{0})
		c1, _ = dialChild(t, addr, []int{1})
	})
	defer c0.Close()

	sendPSR(t, c0, sources[0], 1, 100)
	sendPSR(t, c1, sources[1], 1, 900)
	if f := readUpstream(t, h.parent); f.Type != TypePSR || f.Epoch != 1 {
		t.Fatalf("flush 1: type %d epoch %d", f.Type, f.Epoch)
	}

	// Child 1 drains gracefully and hangs up.
	if err := WriteFrame(c1, Frame{Type: TypeLeave, Payload: core.EncodeContributors([]int{1})}); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	// The leave relays upstream before any post-leave flush.
	f := readUpstream(t, h.parent)
	if f.Type != TypeLeave {
		t.Fatalf("after leave, next upstream frame is type %d, want leave", f.Type)
	}
	ids, err := core.DecodeContributorsBounded(f.Payload, DefaultMaxSources)
	if err != nil || len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("relayed leave ids = %v (%v), want [1]", ids, err)
	}

	// Epoch 2 settles over the remaining child alone: the leaver is neither
	// merged nor failed (the querier's departed view accounts for it).
	sendPSR(t, c0, sources[0], 2, 5)
	f = readUpstream(t, h.parent)
	psr, failed, err := decodeReport(f.Payload, field, DefaultMaxSources)
	if err != nil || f.Type != TypePSR || f.Epoch != 2 {
		t.Fatalf("flush 2: type %d epoch %d (%v)", f.Type, f.Epoch, err)
	}
	if len(failed) != 0 {
		t.Fatalf("departed source listed as failed: %v", failed)
	}
	if res, err := q.EvaluateSubset(2, psr, []int{0}); err != nil || res.Sum != 5 {
		t.Fatalf("epoch 2 over the remaining child: %+v (%v)", res, err)
	}

	c0.Close()
	h.node.Close()
	<-h.runDone
}

// TestQuerierRootFenceRejectsStaleFlush pins the querier-side fence: a root
// hello declaring fence K makes uncommitted data frames for epochs <= K
// suspect (they may have travelled a previous link), so they are dropped, and
// epochs above K evaluate normally.
func TestQuerierRootFenceRejectsStaleFlush(t *testing.T) {
	q, sources, err := core.Setup(1)
	if err != nil {
		t.Fatal(err)
	}
	qn, err := NewQuerierNode("127.0.0.1:0", q)
	if err != nil {
		t.Fatal(err)
	}
	go qn.Run()
	defer qn.Close()

	conn, resync := dialChildFenced(t, qn.Addr(), []int{0}, 5)
	defer conn.Close()
	if resync != 0 {
		t.Fatalf("fresh querier resync = %d, want 0", resync)
	}

	sendPSR(t, conn, sources[0], 3, 333) // at or below the fence: dropped
	sendPSR(t, conn, sources[0], 6, 600) // above the fence: evaluated

	res := waitResult(t, qn)
	if res.Epoch != 6 {
		t.Fatalf("first result is epoch %d, want the fenced epoch 3 dropped and 6 served", res.Epoch)
	}
	if res.Err != nil || res.Sum != 600 {
		t.Fatalf("epoch 6: %+v", res)
	}
	waitCounter(t, qn.obs.fenceRejects.Value, 1, "querier fence rejects")
}

// TestQuerierAccountsDepartedSources pins the contributor accounting after a
// graceful drain: once a leave notice reaches the querier, later epochs
// verify over the remaining set — the leaver is subtracted from the expected
// contributors even though the tree no longer lists it as failed — and a root
// re-hello claiming the shrunken coverage is accepted.
func TestQuerierAccountsDepartedSources(t *testing.T) {
	q, sources, err := core.Setup(2)
	if err != nil {
		t.Fatal(err)
	}
	field := q.Params().Field()
	merge := core.NewAggregator(field)
	qn, err := NewQuerierNode("127.0.0.1:0", q)
	if err != nil {
		t.Fatal(err)
	}
	go qn.Run()
	defer qn.Close()

	conn, _ := dialChild(t, qn.Addr(), []int{0, 1})

	psr0, _ := sources[0].Encrypt(1, 100)
	psr1, _ := sources[1].Encrypt(1, 900)
	if err := WriteFrame(conn, Frame{Type: TypePSR, Epoch: 1, Payload: encodeReport(merge.Merge(psr0, psr1), nil)}); err != nil {
		t.Fatal(err)
	}
	res := waitResult(t, qn)
	if res.Err != nil || res.Sum != 1000 || res.Partial {
		t.Fatalf("epoch 1: %+v", res)
	}

	// Source 1 departs; the tree's flushes stop carrying it without listing
	// it as failed.
	if err := WriteFrame(conn, Frame{Type: TypeLeave, Payload: core.EncodeContributors([]int{1})}); err != nil {
		t.Fatal(err)
	}
	sendPSR(t, conn, sources[0], 2, 5)
	res = waitResult(t, qn)
	if res.Err != nil {
		t.Fatalf("post-leave epoch must verify over the remaining set: %+v", res)
	}
	if res.Sum != 5 || !res.Partial || len(res.Failed) != 1 || res.Failed[0] != 1 {
		t.Fatalf("post-leave epoch 2: %+v, want partial sum 5 with source 1 accounted departed", res)
	}
	h := qn.Health()
	if h.Tree.Departed != 1 {
		t.Fatalf("Tree.Departed = %d, want 1", h.Tree.Departed)
	}

	// The root redials claiming only the survivors: the handshake must accept
	// coverage shrunken exactly by the departed set.
	conn.Close()
	conn2, resync := dialChild(t, qn.Addr(), []int{0})
	defer conn2.Close()
	if resync != 2 {
		t.Fatalf("resync after redial = %d, want 2", resync)
	}
	sendPSR(t, conn2, sources[0], 3, 7)
	res = waitResult(t, qn)
	if res.Err != nil || res.Sum != 7 {
		t.Fatalf("epoch 3 after shrunken re-hello: %+v", res)
	}
}

// TestQuerierLeaveWaitsForEarlierEpochs delivers a burst of epochs, a leave
// and one post-leave epoch in one write. The verify workers may still hold
// the earlier epochs when the reader meets the leave: those carry the
// leaver's data, so they must verify under the membership they were sent in.
func TestQuerierLeaveWaitsForEarlierEpochs(t *testing.T) {
	q, sources, err := core.Setup(2)
	if err != nil {
		t.Fatal(err)
	}
	merge := core.NewAggregator(q.Params().Field())
	qn, err := NewQuerierNode("127.0.0.1:0", q)
	if err != nil {
		t.Fatal(err)
	}
	go qn.Run()
	defer qn.Close()
	conn, _ := dialChild(t, qn.Addr(), []int{0, 1})
	defer conn.Close()

	const before = 16
	var batch []byte
	for e := prf.Epoch(1); e <= before; e++ {
		psr0, _ := sources[0].Encrypt(e, 100)
		psr1, _ := sources[1].Encrypt(e, 900)
		batch = AppendFrame(batch, Frame{Type: TypePSR, Epoch: uint64(e), Payload: encodeReport(merge.Merge(psr0, psr1), nil)})
	}
	batch = AppendFrame(batch, Frame{Type: TypeLeave, Payload: core.EncodeContributors([]int{1})})
	psr0, _ := sources[0].Encrypt(before+1, 5)
	batch = AppendFrame(batch, Frame{Type: TypePSR, Epoch: before + 1, Payload: encodeReport(psr0, nil)})
	if _, err := conn.Write(batch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= before; i++ {
		res := waitResult(t, qn)
		switch {
		case res.Err != nil:
			t.Fatalf("epoch %d rejected: %v", res.Epoch, res.Err)
		case res.Epoch <= before && (res.Sum != 1000 || res.Partial):
			t.Fatalf("pre-leave epoch %d: %+v, want the full sum 1000", res.Epoch, res)
		case res.Epoch == before+1 && (res.Sum != 5 || !res.Partial):
			t.Fatalf("post-leave epoch: %+v, want partial sum 5", res)
		}
	}
}
