package transport

import (
	"sync"
	"testing"
	"time"

	"github.com/sies/sies/internal/core"
	"github.com/sies/sies/internal/prf"
)

// buildPipelinedCluster builds a two-level tree of 4 sources: sources and
// aggregators coalesce outgoing frames through FrameWriters, the querier
// runs its serve pipeline.
func buildPipelinedCluster(t *testing.T) (*QuerierNode, []*SourceNode, func()) {
	t.Helper()
	q, sources, err := core.Setup(4)
	if err != nil {
		t.Fatal(err)
	}
	field := q.Params().Field()

	qn, err := NewQuerierNodeConfig(QuerierConfig{ListenAddr: "127.0.0.1:0"}, q)
	if err != nil {
		t.Fatal(err)
	}
	go qn.Run()

	rootAddr := freeAddr(t)
	agg0Addr := freeAddr(t)
	agg1Addr := freeAddr(t)

	var wg sync.WaitGroup
	startAgg := func(listen string, children int, timeout time.Duration) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parent := qn.Addr()
			if listen != rootAddr {
				parent = rootAddr
			}
			node, err := NewAggregatorNode(AggregatorConfig{
				ListenAddr: listen, ParentAddr: parent,
				NumChildren: children, Timeout: timeout,
			}, field)
			if err != nil {
				t.Errorf("aggregator %s: %v", listen, err)
				return
			}
			if err := node.Run(); err != nil {
				t.Errorf("aggregator %s run: %v", listen, err)
			}
		}()
	}
	startAgg(rootAddr, 2, 1500*time.Millisecond)
	startAgg(agg0Addr, 2, 400*time.Millisecond)
	startAgg(agg1Addr, 2, 400*time.Millisecond)
	time.Sleep(50 * time.Millisecond) // listeners up

	nodes := make([]*SourceNode, 4)
	for i, s := range sources {
		addr := agg0Addr
		if i >= 2 {
			addr = agg1Addr
		}
		n, err := DialSource(addr, s)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	cleanup := func() {
		for _, n := range nodes {
			n.Close()
		}
		wg.Wait()
		qn.Close()
	}
	return qn, nodes, cleanup
}

// TestPipelinedClusterEndToEnd runs the fully batched plane — coalescing
// sources, coalescing aggregators, pipelined querier — and checks every epoch
// still evaluates to the exact SUM. Results may arrive out of epoch order;
// that is part of the pipelined contract.
func TestPipelinedClusterEndToEnd(t *testing.T) {
	qn, sources, cleanup := buildPipelinedCluster(t)
	defer cleanup()

	const epochs = 8
	want := map[prf.Epoch]uint64{}
	for epoch := prf.Epoch(1); epoch <= epochs; epoch++ {
		for i, s := range sources {
			v := uint64(i+1) * 10 * uint64(epoch)
			want[epoch] += v
			if err := s.Report(epoch, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := map[prf.Epoch]uint64{}
	for len(got) < epochs {
		select {
		case res := <-qn.Results:
			if res.Err != nil {
				t.Fatalf("epoch %d rejected: %v", res.Epoch, res.Err)
			}
			if res.Contributors != 4 {
				t.Fatalf("epoch %d: %d contributors, want 4", res.Epoch, res.Contributors)
			}
			if _, dup := got[res.Epoch]; dup {
				t.Fatalf("epoch %d emitted twice", res.Epoch)
			}
			got[res.Epoch] = res.Sum
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out with %d/%d epochs", len(got), epochs)
		}
	}
	for epoch, sum := range want {
		if got[epoch] != sum {
			t.Fatalf("epoch %d: SUM %d, want %d", epoch, got[epoch], sum)
		}
	}
}

// TestPipelinedQuerierDedupAndAcks drives the pipelined serve path directly:
// a burst of epochs must each evaluate and ack exactly once (acks may be
// coalesced and out of order), and a re-sent committed epoch must re-ack from
// the stored result without re-emitting.
func TestPipelinedQuerierDedupAndAcks(t *testing.T) {
	q, sources, err := core.Setup(3)
	if err != nil {
		t.Fatal(err)
	}
	qn, err := NewQuerierNodeConfig(QuerierConfig{ListenAddr: "127.0.0.1:0"}, q)
	if err != nil {
		t.Fatal(err)
	}
	defer qn.Close()
	go qn.Run()
	conn, _ := dialRoot(t, qn.Addr(), 3)
	defer conn.Close()

	const epochs = 16
	want := map[uint64]uint64{}
	for e := uint64(1); e <= epochs; e++ {
		vals := []uint64{e, 2 * e, 3 * e}
		want[e] = 6 * e
		psr := mergeAll(t, q, sources, prf.Epoch(e), vals)
		if err := WriteFrame(conn, Frame{Type: TypePSR, Epoch: e, Payload: encodeReport(psr, nil)}); err != nil {
			t.Fatal(err)
		}
	}

	gotRes := map[uint64]uint64{}
	for len(gotRes) < epochs {
		select {
		case res := <-qn.Results:
			if res.Err != nil {
				t.Fatalf("epoch %d rejected: %v", res.Epoch, res.Err)
			}
			gotRes[uint64(res.Epoch)] = res.Sum
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out with %d/%d results", len(gotRes), epochs)
		}
	}
	gotAck := map[uint64]uint64{}
	for len(gotAck) < epochs {
		f := readResult(t, conn)
		sum, ok, err := DecodeResult(f.Payload)
		if err != nil || !ok {
			t.Fatalf("ack epoch %d: sum %d ok %v err %v", f.Epoch, sum, ok, err)
		}
		if prev, dup := gotAck[f.Epoch]; dup {
			t.Fatalf("epoch %d acked twice (%d then %d)", f.Epoch, prev, sum)
		}
		gotAck[f.Epoch] = sum
	}
	for e, sum := range want {
		if gotRes[e] != sum {
			t.Fatalf("epoch %d result: %d, want %d", e, gotRes[e], sum)
		}
		if gotAck[e] != sum {
			t.Fatalf("epoch %d ack: %d, want %d", e, gotAck[e], sum)
		}
	}

	// Re-send a committed epoch: re-acked from the stored result, never
	// re-evaluated or re-emitted.
	psr := mergeAll(t, q, sources, 3, []uint64{3, 6, 9})
	if err := WriteFrame(conn, Frame{Type: TypePSR, Epoch: 3, Payload: encodeReport(psr, nil)}); err != nil {
		t.Fatal(err)
	}
	f := readResult(t, conn)
	sum, ok, err := DecodeResult(f.Payload)
	if err != nil || !ok || f.Epoch != 3 || sum != want[3] {
		t.Fatalf("re-ack: epoch %d sum %d ok %v err %v, want epoch 3 sum %d", f.Epoch, sum, ok, err, want[3])
	}
	select {
	case res := <-qn.Results:
		t.Fatalf("committed epoch re-emitted: %+v", res)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestPipelinedGroupCommitSharesFsyncs checks the WAL side of the pipeline: a
// burst of concurrent commits must settle with fewer fsyncs than commits,
// some of them acknowledged by a round another committer led.
func TestPipelinedGroupCommitSharesFsyncs(t *testing.T) {
	q, sources, err := core.Setup(2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	qn, err := NewQuerierNodeConfig(QuerierConfig{
		ListenAddr: "127.0.0.1:0", StateDir: dir,
		CheckpointEvery: 10_000, // keep every commit in the journal
	}, q)
	if err != nil {
		t.Fatal(err)
	}
	defer qn.Close()
	j := qn.state.store.Journal()
	// Stretch each sync round so concurrent committers pile onto it; without
	// this the test only shares fsyncs when the scheduler happens to overlap
	// them.
	j.SetBeforeSync(func() { time.Sleep(2 * time.Millisecond) })
	defer j.SetBeforeSync(nil)
	go qn.Run()
	conn, _ := dialRoot(t, qn.Addr(), 2)
	defer conn.Close()

	const epochs = 32
	for e := uint64(1); e <= epochs; e++ {
		psr := mergeAll(t, q, sources, prf.Epoch(e), []uint64{e, e})
		if err := WriteFrame(conn, Frame{Type: TypePSR, Epoch: e, Payload: encodeReport(psr, nil)}); err != nil {
			t.Fatal(err)
		}
	}
	for got := 0; got < epochs; got++ {
		select {
		case res := <-qn.Results:
			if res.Err != nil || res.Sum != 2*uint64(res.Epoch) {
				t.Fatalf("epoch %d: %+v", res.Epoch, res)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out with %d/%d results", got, epochs)
		}
	}

	st := j.Stats()
	if st.Appends != epochs {
		t.Fatalf("journal appends = %d, want %d", st.Appends, epochs)
	}
	if st.SharedSyncs == 0 {
		t.Fatalf("no shared fsyncs across %d concurrent commits (syncs %d)", epochs, st.Syncs)
	}
	if st.Syncs >= epochs {
		t.Fatalf("syncs = %d for %d commits; group commit amortised nothing", st.Syncs, epochs)
	}
	t.Logf("%d commits settled in %d fsyncs (%d shared)", epochs, st.Syncs, st.SharedSyncs)
}

// TestPipelinedCrashBetweenAppendAndSync aims the crash at group commit's one
// new window: the record is appended (and the in-memory committed window
// updated) but the shared fsync has not happened. A power-loss-grade crash
// there must emit nothing, and the restarted node must treat the epoch as
// never committed — serving it exactly once when the root re-sends.
func TestPipelinedCrashBetweenAppendAndSync(t *testing.T) {
	q, sources, err := core.Setup(2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := QuerierConfig{ListenAddr: "127.0.0.1:0", StateDir: dir}
	qn1, err := NewQuerierNodeConfig(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	run1 := make(chan error, 1)
	go func() { run1 <- qn1.Run() }()

	var once sync.Once
	qn1.state.store.Journal().SetBeforeSync(func() {
		once.Do(qn1.Crash)
	})

	conn, _ := dialRoot(t, qn1.Addr(), 2)
	psr := mergeAll(t, q, sources, 1, []uint64{5, 7})
	if err := WriteFrame(conn, Frame{Type: TypePSR, Epoch: 1, Payload: encodeReport(psr, nil)}); err != nil {
		t.Fatal(err)
	}

	// The crash lands before the fsync: nothing may be emitted or acked.
	// Run closes Results once the crash unwinds serve, draining any buffered
	// emits first — so a clean close is exactly "nothing was emitted".
	select {
	case res, ok := <-qn1.Results:
		if ok {
			t.Fatalf("crashed node emitted a result: %+v", res)
		}
	case <-time.After(2 * time.Second):
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if f, err := ReadFrame(conn); err == nil && f.Type == TypeResult {
		t.Fatalf("crashed node acked epoch %d", f.Epoch)
	}
	conn.Close()
	if err := <-run1; err != nil {
		t.Fatalf("crashed run: %v", err)
	}

	// Restart: the unsynced record is gone, the epoch was never committed.
	qn2, err := NewQuerierNodeConfig(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	defer qn2.Close()
	if h := qn2.Health(); h.Epochs != 0 || h.Durability.ReplayedRecords != 0 {
		t.Fatalf("unsynced commit survived the crash: %+v", h)
	}
	go qn2.Run()
	conn2, resync := dialRoot(t, qn2.Addr(), 2)
	defer conn2.Close()
	if resync != 0 {
		t.Fatalf("restored resync = %d, want 0", resync)
	}

	// The root re-sends; the epoch serves exactly once.
	if err := WriteFrame(conn2, Frame{Type: TypePSR, Epoch: 1, Payload: encodeReport(psr, nil)}); err != nil {
		t.Fatal(err)
	}
	res := <-qn2.Results
	if res.Err != nil || res.Sum != 12 {
		t.Fatalf("re-served epoch: %+v", res)
	}
	f := readResult(t, conn2)
	sum, ok, err := DecodeResult(f.Payload)
	if err != nil || !ok || sum != 12 {
		t.Fatalf("re-served ack: sum %d ok %v err %v", sum, ok, err)
	}
	select {
	case res := <-qn2.Results:
		t.Fatalf("epoch emitted twice: %+v", res)
	case <-time.After(100 * time.Millisecond):
	}
}
