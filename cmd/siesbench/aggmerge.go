package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"github.com/sies/sies/internal/core"
	"github.com/sies/sies/internal/prf"
	"github.com/sies/sies/internal/transport"
	"github.com/sies/sies/internal/uint256"
)

var flagAggMerge = flag.Bool("aggmerge", false, "run the sharded aggregator merge-plane sweep (fanout × shards, epochs/sec)")

// aggmergeBar is the merge-plane shape check: the sharded defaults must reach
// this multiple of the serialised configuration's epochs/sec at the largest
// fanout.
const aggmergeBar = 2.0

// aggmergeBench measures one aggregator's ingest-to-flush throughput in
// isolation: C raw child connections stream pre-merged per-epoch PSRs for
// N sources full-tilt, a fake parent counts the flushes, and nothing else —
// no source nodes, no querier — so the number is the epoch table and merge
// plane, not the rest of the cluster. Each fanout runs twice: Shards=1 /
// MergeWorkers=1 (every child reader serialises on one stripe lock and one
// flush worker — the pre-sharding design) against the sharded defaults, and
// the shape check holds the speedup at the largest fanout to aggmergeBar.
func aggmergeBench() error {
	const nSources = 1024
	fanouts := []int{4, 16}
	epochs, reps := 2000, 3
	if *flagQuick {
		epochs, reps = 400, 2
	}

	q, sources, err := core.Setup(nSources)
	if err != nil {
		return err
	}
	field := q.Params().Field()

	// Encrypt every (source, epoch) PSR once up front; the per-fanout child
	// payloads are re-merged from these so crypto cost never lands inside a
	// timed run and both configurations replay byte-identical traffic.
	perSource := make([][]core.PSR, nSources)
	for s := range perSource {
		perSource[s] = make([]core.PSR, epochs)
		for e := 0; e < epochs; e++ {
			if perSource[s][e], err = sources[s].Encrypt(prf.Epoch(e+1), uint64(1000+s)); err != nil {
				return err
			}
		}
	}

	fmt.Printf("(N=%d sources pre-merged into per-child reports; %d epochs per run; GOMAXPROCS=%d)\n\n",
		nSources, epochs, runtime.GOMAXPROCS(0))
	fmt.Printf("%-8s %18s %18s %10s\n", "fanout", "serial eps", "sharded eps", "speedup")
	merger := core.NewAggregator(field)
	var speedup float64
	for _, c := range fanouts {
		per := nSources / c
		payloads := make([][][]byte, c)
		covers := make([][]int, c)
		for i := 0; i < c; i++ {
			covers[i] = make([]int, per)
			for j := range covers[i] {
				covers[i][j] = i*per + j
			}
			payloads[i] = make([][]byte, epochs)
			for e := 0; e < epochs; e++ {
				m := merger.NewMerge()
				for _, s := range covers[i] {
					m.Add(perSource[s][e])
				}
				psr := m.Final()
				payloads[i][e] = transport.EncodeReport(psr, nil)
			}
		}

		// Alternate configurations and keep each one's best rep: single runs
		// are tens of milliseconds, where scheduler and GC noise would drown
		// the configuration effect.
		var serial, sharded float64
		for r := 0; r < reps; r++ {
			s1, err := runAggMerge(field, covers, payloads, epochs, 1, 1)
			if err != nil {
				return fmt.Errorf("C=%d serial: %w", c, err)
			}
			if s1 > serial {
				serial = s1
			}
			s8, err := runAggMerge(field, covers, payloads, epochs, 0, 0) // defaults
			if err != nil {
				return fmt.Errorf("C=%d sharded: %w", c, err)
			}
			if s8 > sharded {
				sharded = s8
			}
		}
		transportRows = append(transportRows,
			benchRow{Op: fmt.Sprintf("aggmerge/serial/C=%d", c), N: nSources, NsPerOp: 1e9 / serial, EpochsPerSec: serial},
			benchRow{Op: fmt.Sprintf("aggmerge/sharded/C=%d", c), N: nSources, NsPerOp: 1e9 / sharded, EpochsPerSec: sharded},
		)
		speedup = sharded / serial
		fmt.Printf("C=%-6d %18.0f %18.0f %9.2fx\n", c, serial, sharded, speedup)
	}
	fmt.Println()
	shapeVerdict(speedup >= aggmergeBar, fmt.Sprintf(
		"sharded/serial at C=%d is %.2fx (bar: >=%.1fx, GOMAXPROCS=%d)",
		fanouts[len(fanouts)-1], speedup, aggmergeBar, runtime.GOMAXPROCS(0)))
	return nil
}

// runAggMerge drives one aggregator configuration with the prebuilt per-child
// report payloads and returns end-to-end epochs/sec, timed from the first
// child write to the last flush observed at the fake parent.
func runAggMerge(f *uint256.Field, covers [][]int, payloads [][][]byte, epochs, shards, workers int) (float64, error) {
	parentLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer parentLn.Close()
	aggAddr, err := loopbackAddr()
	if err != nil {
		return 0, err
	}

	c := len(covers)
	type built struct {
		node *transport.AggregatorNode
		err  error
	}
	builtCh := make(chan built, 1)
	go func() {
		node, err := transport.NewAggregatorNode(transport.AggregatorConfig{
			ListenAddr: aggAddr, ParentAddr: parentLn.Addr().String(),
			NumChildren: c, Timeout: 10 * time.Second,
			Shards: shards, MergeWorkers: workers,
		}, f)
		builtCh <- built{node, err}
	}()

	conns := make([]net.Conn, c)
	defer func() {
		for _, conn := range conns {
			if conn != nil {
				conn.Close()
			}
		}
	}()
	for i := range conns {
		if conns[i], err = dialAggChild(aggAddr, covers[i]); err != nil {
			return 0, err
		}
	}

	parent, err := parentLn.Accept()
	if err != nil {
		return 0, err
	}
	defer parent.Close()
	br := bufio.NewReaderSize(parent, 64<<10)
	parent.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		fr, err := transport.ReadFrame(br)
		if err != nil {
			return 0, fmt.Errorf("upstream hello: %w", err)
		}
		if fr.Type == transport.TypeHello {
			break
		}
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

	start := time.Now()
	sendErr := make(chan error, c)
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bw := bufio.NewWriterSize(conns[i], 64<<10)
			for e := 0; e < epochs; e++ {
				if err := transport.WriteFrame(bw, transport.Frame{
					Type: transport.TypePSR, Epoch: uint64(e + 1), Payload: payloads[i][e],
				}); err != nil {
					sendErr <- err
					return
				}
			}
			if err := bw.Flush(); err != nil {
				sendErr <- err
			}
		}(i)
	}

	seen := 0
	parent.SetReadDeadline(time.Now().Add(120 * time.Second))
	for seen < epochs {
		fr, err := transport.ReadFrame(br)
		if err != nil {
			return 0, fmt.Errorf("after %d/%d flushes: %w", seen, epochs, err)
		}
		if fr.Type == transport.TypePSR || fr.Type == transport.TypeFailure {
			seen++
		}
	}
	elapsed := time.Since(start)
	wg.Wait()
	select {
	case err := <-sendErr:
		return 0, err
	default:
	}

	// Keep draining so shutdown-path frames never block a merge worker on a
	// full socket buffer while the node unwinds.
	parent.SetReadDeadline(time.Time{})
	go io.Copy(io.Discard, br)
	for i, conn := range conns {
		conn.Close()
		conns[i] = nil
	}
	b.node.Close()
	if err := <-runDone; err != nil {
		return 0, err
	}
	return float64(epochs) / elapsed.Seconds(), nil
}

// dialAggChild opens a raw child connection: hello out, hello-ack in. Dials
// retry briefly because the first one races the aggregator's listen call.
func dialAggChild(addr string, covers []int) (net.Conn, error) {
	var conn net.Conn
	var err error
	deadline := time.Now().Add(2 * time.Second)
	for {
		conn, err = net.Dial("tcp", addr)
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		return nil, err
	}
	if err := transport.WriteFrame(conn, transport.Frame{Type: transport.TypeHello, Payload: core.EncodeContributors(covers)}); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	ack, err := transport.ReadFrame(conn)
	if err != nil || ack.Type != transport.TypeHello {
		conn.Close()
		return nil, fmt.Errorf("hello-ack: %+v (%v)", ack, err)
	}
	conn.SetReadDeadline(time.Time{})
	return conn, nil
}
