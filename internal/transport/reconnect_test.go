package transport

import (
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/sies/sies/internal/chaos"
	"github.com/sies/sies/internal/core"
	"github.com/sies/sies/internal/prf"
)

// waitResult pulls the next EpochResult or fails the test.
func waitResult(t *testing.T, qn *QuerierNode) EpochResult {
	t.Helper()
	select {
	case res := <-qn.Results:
		return res
	case <-time.After(10 * time.Second):
		t.Fatal("no result")
		return EpochResult{}
	}
}

// TestSourceReconnectBackoff drives a source over a flapping link: the link
// goes dark mid-run, the source's report blocks in the backoff loop, the
// epoch is flushed as partial, and once the link heals the source redials,
// re-handshakes and later epochs report the full contributor set again.
func TestSourceReconnectBackoff(t *testing.T) {
	q, sources, err := core.Setup(2)
	if err != nil {
		t.Fatal(err)
	}
	field := q.Params().Field()
	qn, err := NewQuerierNode("127.0.0.1:0", q)
	if err != nil {
		t.Fatal(err)
	}
	go qn.Run()
	defer qn.Close()

	aggAddr := freeAddr(t)
	aggDone := make(chan error, 1)
	go func() {
		node, err := NewAggregatorNode(AggregatorConfig{
			ListenAddr: aggAddr, ParentAddr: qn.Addr(),
			NumChildren: 2, Timeout: 300 * time.Millisecond,
		}, field)
		if err != nil {
			aggDone <- err
			return
		}
		aggDone <- node.Run()
	}()
	time.Sleep(50 * time.Millisecond) // listener up

	inj := chaos.New(chaos.Config{Seed: 11})
	flaky, err := DialSourceWith(SourceConfig{
		ParentAddr: aggAddr,
		Dial:       inj.Dial,
		Backoff: Backoff{
			Initial: 25 * time.Millisecond, Max: 200 * time.Millisecond,
			MaxElapsed: 20 * time.Second,
			Rand:       rand.New(rand.NewSource(1)),
		},
	}, sources[0])
	if err != nil {
		t.Fatal(err)
	}
	defer flaky.Close()
	steady, err := DialSource(aggAddr, sources[1])
	if err != nil {
		t.Fatal(err)
	}
	defer steady.Close()

	// Epoch 1: both contribute.
	if err := flaky.Report(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := steady.Report(1, 20); err != nil {
		t.Fatal(err)
	}
	if res := waitResult(t, qn); res.Err != nil || res.Sum != 30 || res.Partial {
		t.Fatalf("epoch 1: %+v", res)
	}

	// The link dies. The flaky source's report is queued and its writer
	// blocks retrying with backoff while the aggregator times the source out
	// and flushes a partial epoch.
	inj.SetOffline(true)
	dialsBefore := inj.DialAttempts()
	reported := make(chan error, 1)
	go func() { reported <- flaky.Report(2, 11) }()
	if err := steady.Report(2, 21); err != nil {
		t.Fatal(err)
	}
	res := waitResult(t, qn)
	if res.Err != nil || res.Epoch != 2 || res.Sum != 21 || !res.Partial {
		t.Fatalf("epoch 2 should be the exact partial SUM: %+v", res)
	}
	if len(res.Failed) != 1 || res.Failed[0] != 0 {
		t.Fatalf("epoch 2 non-contributors = %v, want [0]", res.Failed)
	}

	// Let the backoff loop accumulate a few refused dials, then heal.
	time.Sleep(300 * time.Millisecond)
	inj.SetOffline(false)
	if err := <-reported; err != nil {
		t.Fatalf("report after recovery: %v", err)
	}
	// Report only queues the frame; Flush waits for the writer's redial to
	// hand it to the healed link.
	if err := flaky.fw.Flush(); err != nil {
		t.Fatalf("report after recovery: %v", err)
	}
	if flaky.Reconnects() < 1 {
		t.Fatalf("reconnects = %d, want >= 1", flaky.Reconnects())
	}
	if inj.DialAttempts()-dialsBefore < 2 {
		t.Fatalf("only %d redial attempts — no backoff retries observed", inj.DialAttempts()-dialsBefore)
	}

	// Epoch 3: the full contributor set is back.
	if err := flaky.Report(3, 12); err != nil {
		t.Fatal(err)
	}
	if err := steady.Report(3, 22); err != nil {
		t.Fatal(err)
	}
	if res := waitResult(t, qn); res.Err != nil || res.Epoch != 3 || res.Sum != 34 || res.Partial {
		t.Fatalf("epoch 3 after recovery: %+v", res)
	}

	h := qn.Health()
	if h.Full < 2 || h.Partial < 1 || h.Missed[0] < 1 {
		t.Fatalf("health = %+v", h)
	}

	flaky.Close()
	steady.Close()
	if err := <-aggDone; err != nil {
		t.Fatalf("aggregator: %v", err)
	}
}

// dialChild opens a raw child connection: hello out, hello-ack in.
func dialChild(t *testing.T, addr string, covers []int) (net.Conn, uint64) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, Frame{Type: TypeHello, Payload: core.EncodeContributors(covers)}); err != nil {
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

// readUpstream reads the aggregator's next data frame at the fake parent,
// skipping the best-effort membership events interleaved with the data plane.
func readUpstream(t *testing.T, conn net.Conn) Frame {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		f, err := ReadFrame(conn)
		if err != nil {
			t.Fatalf("reading upstream frame: %v", err)
		}
		if f.Type == TypeMember {
			continue
		}
		return f
	}
}

// sendPSR reports one epoch for one source over a raw child connection.
func sendPSR(t *testing.T, conn net.Conn, src *core.Source, epoch prf.Epoch, v uint64) {
	t.Helper()
	psr, err := src.Encrypt(epoch, v)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, Frame{Type: TypePSR, Epoch: uint64(epoch), Payload: encodeReport(psr, nil)}); err != nil {
		t.Fatal(err)
	}
}

// TestAggregatorLateAndDuplicateReports exercises the duplicate-suppression
// path directly: a report arriving after a timeout flush is dropped, and
// after the bounded flushed map resets, a re-sent epoch is forwarded again
// (best-effort suppression — the querier just re-verifies).
func TestAggregatorLateAndDuplicateReports(t *testing.T) {
	q, sources, err := core.Setup(2)
	if err != nil {
		t.Fatal(err)
	}
	field := q.Params().Field()

	parentLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer parentLn.Close()
	aggAddr := freeAddr(t)

	type built struct {
		node *AggregatorNode
		err  error
	}
	builtCh := make(chan built, 1)
	go func() {
		node, err := NewAggregatorNode(AggregatorConfig{
			ListenAddr: aggAddr, ParentAddr: parentLn.Addr().String(),
			NumChildren: 2, Timeout: 250 * time.Millisecond,
			Shards: 1, // single stripe: the cap-1 window hook below must see every flush
		}, field)
		builtCh <- built{node, err}
	}()

	time.Sleep(50 * time.Millisecond)
	c0, resync := dialChild(t, aggAddr, []int{0})
	defer c0.Close()
	if resync != 0 {
		t.Fatalf("initial resync epoch = %d, want 0", resync)
	}
	c1, _ := dialChild(t, aggAddr, []int{1})
	defer c1.Close()

	parent, err := parentLn.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()
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
	node := b.node
	node.table.shards[0].flushed.cap = 1 // test hook: remember only the latest flushed epoch
	runDone := make(chan error, 1)
	go func() { runDone <- node.Run() }()

	// Epoch 1: only child 0 reports; the deadline flushes a partial report.
	sendPSR(t, c0, sources[0], 1, 100)
	f := readUpstream(t, parent)
	psr, failed, err := decodeReport(f.Payload, field, DefaultMaxSources)
	if err != nil || f.Type != TypePSR || f.Epoch != 1 {
		t.Fatalf("flush 1: type %d epoch %d (%v)", f.Type, f.Epoch, err)
	}
	if len(failed) != 1 || failed[0] != 1 {
		t.Fatalf("flush 1 failed list = %v, want [1]", failed)
	}
	// The partial SUM verifies exactly against the recomputed Σss of the
	// listed contributors.
	res, err := q.EvaluateSubset(1, psr, core.Subtract(2, failed))
	if err != nil || res.Sum != 100 {
		t.Fatalf("partial epoch 1: %+v (%v)", res, err)
	}

	// Child 1's report for epoch 1 arrives after the flush: suppressed.
	sendPSR(t, c1, sources[1], 1, 900)
	// Epoch 2 from both children flushes normally — and is the next upstream
	// frame, proving the late epoch-1 report produced no duplicate.
	sendPSR(t, c0, sources[0], 2, 5)
	sendPSR(t, c1, sources[1], 2, 6)
	f = readUpstream(t, parent)
	if f.Epoch != 2 || f.Type != TypePSR {
		t.Fatalf("after late report, next flush = type %d epoch %d, want PSR epoch 2", f.Type, f.Epoch)
	}

	// The epoch-2 flush reset the (cap-0) flushed map, dropping the memory of
	// epoch 1. A full re-send of epoch 1 is therefore forwarded again —
	// suppression across resets is best-effort, and the duplicate must carry
	// a verifiable full report.
	sendPSR(t, c0, sources[0], 1, 100)
	sendPSR(t, c1, sources[1], 1, 900)
	f = readUpstream(t, parent)
	psr, failed, err = decodeReport(f.Payload, field, DefaultMaxSources)
	if err != nil || f.Epoch != 1 || len(failed) != 0 {
		t.Fatalf("re-flushed epoch 1: epoch %d failed %v (%v)", f.Epoch, failed, err)
	}
	if res, err := q.Evaluate(1, psr); err != nil || res.Sum != 1000 {
		t.Fatalf("duplicate epoch 1 evaluation: %+v (%v)", res, err)
	}

	c0.Close()
	c1.Close()
	if err := <-runDone; err != nil {
		t.Fatalf("aggregator run: %v", err)
	}
}

// TestAggregatorFlushesWhenLastChildDies pins the orphan-flush fix: when the
// last living child disconnects, epochs waiting only on dead children are
// forwarded immediately instead of waiting out the deadline ticker.
func TestAggregatorFlushesWhenLastChildDies(t *testing.T) {
	q, sources, err := core.Setup(2)
	if err != nil {
		t.Fatal(err)
	}
	field := q.Params().Field()

	parentLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer parentLn.Close()
	aggAddr := freeAddr(t)

	type built struct {
		node *AggregatorNode
		err  error
	}
	builtCh := make(chan built, 1)
	// A deliberately huge timeout: the only way the epoch can flush fast is
	// the disconnect path.
	go func() {
		node, err := NewAggregatorNode(AggregatorConfig{
			ListenAddr: aggAddr, ParentAddr: parentLn.Addr().String(),
			NumChildren: 2, Timeout: 60 * time.Second,
			ReconnectWindow: 100 * time.Millisecond,
		}, field)
		builtCh <- built{node, err}
	}()
	time.Sleep(50 * time.Millisecond)
	c0, _ := dialChild(t, aggAddr, []int{0})
	c1, _ := dialChild(t, aggAddr, []int{1})
	parent, err := parentLn.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()
	readUpstream(t, parent) // agg hello
	if err := WriteFrame(parent, Frame{Type: TypeHello}); err != nil {
		t.Fatal(err)
	}
	b := <-builtCh
	if b.err != nil {
		t.Fatal(b.err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- b.node.Run() }()

	sendPSR(t, c0, sources[0], 1, 7)
	c0.Close()
	c1.Close() // last living child gone: epoch 1 can never complete

	start := time.Now()
	f := readUpstream(t, parent)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("flush took %v — rode the deadline ticker instead of the disconnect", elapsed)
	}
	psr, failed, err := decodeReport(f.Payload, field, DefaultMaxSources)
	if err != nil || f.Epoch != 1 {
		t.Fatalf("orphan flush: %+v (%v)", f, err)
	}
	if len(failed) != 1 || failed[0] != 1 {
		t.Fatalf("orphan flush failed list = %v, want [1]", failed)
	}
	if res, err := q.EvaluateSubset(1, psr, []int{0}); err != nil || res.Sum != 7 {
		t.Fatalf("orphan flush evaluation: %+v (%v)", res, err)
	}
	if err := <-runDone; err != nil {
		t.Fatalf("aggregator run: %v", err)
	}
}
