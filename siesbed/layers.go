package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/sies/sies/internal/core"
	"github.com/sies/sies/internal/durable"
	"github.com/sies/sies/internal/obs"
	"github.com/sies/sies/internal/prf"
	"github.com/sies/sies/internal/transport"
)

// The per-layer figures of the traced run. Each replay calls one layer's
// public functions alone on the workload's recorded inputs; the instrument
// readers use the nodes' own metrics and tracers. Nothing here reaches
// inside the program.

// replayBudget bounds how long one timing loop runs.
const replayBudget = 200 * time.Millisecond

// deriveNS is prf.RingDerivers.DeriveRange's cost per source on epochs the
// stream never used, so no derivation is cached anywhere.
func deriveNS(st *stream) (float64, error) {
	ring, err := prf.NewKeyRingFromKeys(st.global, st.keys)
	if err != nil {
		return 0, err
	}
	rd := prf.NewRingDerivers(ring)
	ids := allIDs(len(st.keys))
	var sink byte
	visit := func(_ int, kit [prf.Size256]byte, ss [prf.Size1]byte) error {
		sink ^= kit[0] ^ ss[0]
		return nil
	}
	start := time.Now()
	n := 0
	for ; n < 3 || time.Since(start) < replayBudget; n++ {
		if err := rd.DeriveRange(prf.Epoch(st.epochs+1+n), ids, visit); err != nil {
			return 0, err
		}
	}
	_ = sink // keeps the derivations observable
	return float64(time.Since(start).Nanoseconds()) / float64(n*len(ids)), nil
}

// verifyUS is a cache-cold core.Schedule.Evaluate of the root PSR, with the
// node's schedule configuration, in µs (median). Odd epochs only: the
// prefetcher warms t+1 behind every request, so every other epoch stays
// cold. Every answer is checked against the expected SUM.
func verifyUS(w workload, st *stream) (float64, error) {
	ring, err := prf.NewKeyRingFromKeys(st.global, st.keys)
	if err != nil {
		return 0, err
	}
	params, err := core.NewParams(w.n)
	if err != nil {
		return 0, err
	}
	q, err := core.NewQuerier(ring, params)
	if err != nil {
		return 0, err
	}
	qc, _ := nodeConfigs("")
	sched := core.NewSchedule(q, qc.Schedule)
	merger := core.NewAggregator(st.field)
	var samples []float64
	start := time.Now()
	for e := 1; e <= st.epochs && (len(samples) < 20 || time.Since(start) < replayBudget); e += 2 {
		root := merger.Merge(st.childPSRs(e)...)
		t0 := time.Now()
		res, err := sched.Evaluate(prf.Epoch(e), root, nil)
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			return 0, fmt.Errorf("verify replay, epoch %d: %w", e, err)
		}
		if res.Sum != st.sums[e] {
			return 0, fmt.Errorf("verify replay, epoch %d: SUM %d, want %d", e, res.Sum, st.sums[e])
		}
	}
	return median(samples), nil
}

// encryptMerge re-encrypts the first epochs of the stream with fresh
// sources (core.Source.Encrypt, one reading per source per epoch, as a
// sensor pays it) and re-merges each subtree (core.MergeState Add + Final).
// It returns ns per Encrypt and per merged PSR, and fails if a merge
// differs from the replayed stream, which also validates the cache.
func encryptMerge(w workload, st *stream) (encNS, mergeNS float64, err error) {
	params, err := core.NewParams(w.n)
	if err != nil {
		return 0, 0, err
	}
	sources := make([]*core.Source, w.n)
	for i := range sources {
		if sources[i], err = core.NewSource(i, st.global, st.keys[i], params); err != nil {
			return 0, 0, err
		}
	}
	epochs := min(st.epochs, max(1, 16384/w.n))
	merger := core.NewAggregator(st.field)
	psrs := make([]core.PSR, w.n)
	var enc, merge time.Duration
	for e := 1; e <= epochs; e++ {
		t0 := time.Now()
		for id, src := range sources {
			if psrs[id], err = src.Encrypt(prf.Epoch(e), reading(st.seed, prf.Epoch(e), id)); err != nil {
				return 0, 0, err
			}
		}
		t1 := time.Now()
		enc += t1.Sub(t0)
		for j, ids := range st.covers {
			t2 := time.Now()
			m := merger.NewMerge()
			for _, id := range ids {
				m.Add(psrs[id])
			}
			got := m.Final()
			merge += time.Since(t2)
			if got.Bytes() != st.psr(j, e).Bytes() {
				return 0, 0, fmt.Errorf("epoch %d child %d: replay stream differs from a fresh encryption", e, j)
			}
		}
	}
	per := float64(epochs * w.n)
	return float64(enc.Nanoseconds()) / per, float64(merge.Nanoseconds()) / per, nil
}

// codecNS times the child-frame codec per frame: encode is
// transport.EncodeReport + transport.AppendFrame, decode is
// transport.FrameReader.Read + core.ParsePSR.
func codecNS(st *stream) (encNS, decNS float64, err error) {
	k := min(st.epochs, 20000)
	psrs := make([]core.PSR, k+1)
	for e := 1; e <= k; e++ {
		psrs[e] = st.psr(0, e)
	}
	buf := make([]byte, 0, k*st.stride)
	t0 := time.Now()
	for e := 1; e <= k; e++ {
		buf = transport.AppendFrame(buf, transport.Frame{
			Type: transport.TypePSR, Epoch: uint64(e), Payload: transport.EncodeReport(psrs[e], nil),
		})
	}
	encNS = float64(time.Since(t0).Nanoseconds()) / float64(k)
	fr := transport.NewFrameReader(bytes.NewReader(buf))
	t1 := time.Now()
	for e := 1; e <= k; e++ {
		f, err := fr.Read()
		if err != nil {
			return 0, 0, err
		}
		p, err := core.ParsePSR(f.Payload[:core.PSRSize], st.field)
		if err != nil || p.Bytes() != psrs[e].Bytes() {
			return 0, 0, fmt.Errorf("decode replay, epoch %d: %v", e, err)
		}
	}
	decNS = float64(time.Since(t1).Nanoseconds()) / float64(k)
	return encNS, decNS, nil
}

// isolatedAggEPS runs the aggregator alone, built like the tree's, with
// the same children and frames and a fake parent that only counts flushes:
// the ceiling the aggregator puts on the tree's eps.
func isolatedAggEPS(w workload, st *stream, stateDir, dumpPath string) (float64, error) {
	parentLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer parentLn.Close()
	_, ac := nodeConfigs(stateDir)
	ac.ParentAddr, ac.NumChildren = parentLn.Addr().String(), w.c
	kids, builtCh, err := startAggregator(ac, st.field, st.covers)
	defer func() {
		for _, c := range kids {
			c.Close()
		}
	}()
	if err != nil {
		return 0, err
	}
	parent, err := parentLn.Accept()
	if err != nil {
		return 0, err
	}
	defer parent.Close()
	br := bufio.NewReader(parent)
	if f, err := transport.ReadFrame(br); err != nil || f.Type != transport.TypeHello {
		return 0, fmt.Errorf("fake parent: hello: type %d (%v)", f.Type, err)
	}
	if err := transport.WriteFrame(parent, transport.Frame{Type: transport.TypeHello}); err != nil {
		return 0, err
	}
	b := <-builtCh
	if b.err != nil {
		return 0, b.err
	}
	runDone := make(chan error, 1)
	go func() { runDone <- b.node.Run() }()

	epochs := min(st.epochs, 20000)
	var seen atomic.Int64
	flushed := make(chan time.Time, 1)
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		fr := transport.NewFrameReader(br)
		for {
			f, err := fr.Read()
			if err != nil {
				return
			}
			if f.Type == transport.TypePSR || f.Type == transport.TypeFailure {
				if seen.Add(1) == int64(epochs) {
					flushed <- time.Now()
				}
			}
		}
	}()
	start := time.Now()
	for e := 1; e <= epochs; e++ {
		for j, c := range kids {
			if _, err := c.Write(st.frame(j, e)); err != nil {
				return 0, err
			}
		}
	}
	// Wait for the last flush while flushes keep coming; a durable
	// aggregator is fsync-bound and may need many seconds for the stream.
	var eps float64
	progress := time.NewTicker(time.Second)
	for last, stalled := int64(-1), time.Now(); eps == 0 && err == nil; {
		select {
		case end := <-flushed:
			eps = float64(epochs) / end.Sub(start).Seconds()
		case now := <-progress.C:
			if n := seen.Load(); n != last {
				last, stalled = n, now
			} else if now.Sub(stalled) > resultTimeout {
				err = fmt.Errorf("isolated aggregator stalled after %d of %d flushes", n, epochs)
			}
		}
	}
	progress.Stop()
	for _, c := range kids {
		c.Close()
	}
	kids = nil
	b.node.Close()
	select {
	case <-runDone:
	case <-time.After(resultTimeout):
		if derr := dumpGoroutines(dumpPath); derr != nil {
			return 0, fmt.Errorf("isolated aggregator: %w (goroutine dump failed: %v)", errHung, derr)
		}
		return 0, fmt.Errorf("isolated aggregator: %w; goroutines dumped to %s", errHung, dumpPath)
	}
	parent.Close()
	<-readDone
	return eps, err
}

// appendSyncUS is durable.Journal.AppendSync of a commit-sized record on
// the filesystem that holds dir, in µs (median of 200).
func appendSyncUS(dir string) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	j, _, err := durable.OpenJournal(filepath.Join(dir, "probe.wal"))
	if err != nil {
		return 0, err
	}
	rec := durable.Record{Type: 1, Payload: make([]byte, 48)}
	samples := make([]float64, 200)
	for i := range samples {
		t0 := time.Now()
		if err := j.AppendSync(rec); err != nil {
			j.Close()
			return 0, err
		}
		samples[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	if err := j.Close(); err != nil {
		return 0, err
	}
	return median(samples), nil
}

// stageGapUS is, over the spans that visited both stages, the median time
// from the first from mark to the first to mark, in µs.
func stageGapUS(spans []obs.Span, from, to string) float64 {
	var gaps []float64
	for _, s := range spans {
		a, b := int64(-1), int64(-1)
		for _, m := range s.Stages {
			if m.Stage == from && a < 0 {
				a = m.OffsetUS
			}
			if m.Stage == to && b < 0 {
				b = m.OffsetUS
			}
		}
		if a >= 0 && b >= a {
			gaps = append(gaps, float64(b-a))
		}
	}
	return median(gaps)
}

// ratio is num/den, or 0 when den is 0 (a counter the workload never
// exercises, such as fsyncs without a state dir).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentile(xs, 0.5)
}

func allIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}
