package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"github.com/sies/sies/internal/core"
	"github.com/sies/sies/internal/prf"
	"github.com/sies/sies/internal/transport"
	"github.com/sies/sies/internal/uint256"
)

// nodeTimeout is siesnode's default -timeout, the aggregator's per-epoch
// wait for missing children.
const nodeTimeout = 2 * time.Second

// tree is one live querier ← aggregator deployment over loopback TCP, with
// the generator's raw child connections standing in for the subtrees.
type tree struct {
	qn    *transport.QuerierNode
	agg   *transport.AggregatorNode
	kids  []net.Conn
	qDone chan error
	aDone chan error
}

// nodeConfigs returns the querier and aggregator configurations exactly as
// siesnode builds them from its default flags: a prefetching key schedule
// and no pipeline at the querier; default shards, merge workers and timeout,
// no coalescing at the aggregator. stateDir is non-empty only for durable
// workloads, which siesnode gets from -state-dir.
func nodeConfigs(stateDir string) (transport.QuerierConfig, transport.AggregatorConfig) {
	qc := transport.QuerierConfig{ListenAddr: "127.0.0.1:0", Schedule: core.ScheduleConfig{Prefetch: true}}
	ac := transport.AggregatorConfig{Timeout: nodeTimeout}
	if stateDir != "" {
		qc.StateDir = filepath.Join(stateDir, "querier")
		ac.StateDir = filepath.Join(stateDir, "aggregator")
	}
	return qc, ac
}

// buildTree provisions the querier from the stream's key material and
// brings the tree up: querier listening and running, aggregator accepting
// the generator's children and dialling the querier, aggregator running.
func buildTree(w workload, st *stream, stateDir string) (*tree, error) {
	ring, err := prf.NewKeyRingFromKeys(st.global, st.keys)
	if err != nil {
		return nil, err
	}
	params, err := core.NewParams(w.n)
	if err != nil {
		return nil, err
	}
	q, err := core.NewQuerier(ring, params)
	if err != nil {
		return nil, err
	}
	qc, ac := nodeConfigs(stateDir)
	qn, err := transport.NewQuerierNodeConfig(qc, q)
	if err != nil {
		return nil, err
	}
	t := &tree{qn: qn, qDone: make(chan error, 1), aDone: make(chan error, 1)}
	go func() { t.qDone <- qn.Run() }()

	ac.ParentAddr, ac.NumChildren = qn.Addr(), w.c
	kids, builtCh, err := startAggregator(ac, params.Field(), st.covers)
	if err != nil {
		return nil, err
	}
	t.kids = kids
	b := <-builtCh
	if b.err != nil {
		return nil, fmt.Errorf("aggregator: %w", b.err)
	}
	t.agg = b.node
	go func() { t.aDone <- t.agg.Run() }()
	return t, nil
}

// aggBuilt is NewAggregatorNode's outcome.
type aggBuilt struct {
	node *transport.AggregatorNode
	err  error
}

// startAggregator builds an aggregator from ac on another goroutine,
// because NewAggregatorNode listens and then blocks accepting its children,
// and dials one raw child per entry of covers as soon as it listens. The
// Listen hook is plain net.Listen on a free loopback port; it only reports
// the address. The node arrives on the returned channel once it has its
// children and its parent.
func startAggregator(ac transport.AggregatorConfig, field *uint256.Field, covers [][]int) ([]net.Conn, <-chan aggBuilt, error) {
	built := make(chan aggBuilt, 1)
	listening := make(chan string, 1)
	ac.ListenAddr = "127.0.0.1:0"
	ac.Listen = func(network, addr string) (net.Listener, error) {
		ln, err := net.Listen(network, addr)
		if err == nil {
			listening <- ln.Addr().String()
		}
		return ln, err
	}
	go func() {
		node, err := transport.NewAggregatorNode(ac, field)
		built <- aggBuilt{node, err}
	}()
	var addr string
	select {
	case addr = <-listening:
	case b := <-built:
		return nil, nil, fmt.Errorf("aggregator: %w", b.err)
	}
	var kids []net.Conn
	for _, ids := range covers {
		conn, err := dialChild(addr, ids)
		if err != nil {
			return kids, nil, fmt.Errorf("dialling aggregator child: %w", err)
		}
		kids = append(kids, conn)
	}
	return kids, built, nil
}

// dialChild opens a raw child connection: hello with the subtree's
// coverage out, hello-ack in.
func dialChild(addr string, covers []int) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	hello := transport.Frame{Type: transport.TypeHello, Payload: core.EncodeContributors(covers)}
	if err := transport.WriteFrame(conn, hello); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	ack, err := transport.ReadFrame(conn)
	if err != nil || ack.Type != transport.TypeHello {
		conn.Close()
		return nil, fmt.Errorf("hello-ack: type %d (%v)", ack.Type, err)
	}
	conn.SetReadDeadline(time.Time{})
	return conn, nil
}

// errHung reports a node whose Close/Run did not return in time.
var errHung = errors.New("node teardown exceeded its deadline")

// close tears the tree down: children first, then aggregator, then querier,
// draining the querier's Results meanwhile so it never blocks on emit. Any
// result arriving now goes to late. When the nodes have not returned within
// limit, close writes a goroutine dump to dumpPath and returns errHung; the
// stuck goroutines are left behind rather than hanging the benchmark.
func (t *tree) close(limit time.Duration, dumpPath string, late func(transport.EpochResult)) error {
	for _, c := range t.kids {
		c.Close()
	}
	t.agg.Close()
	t.qn.Close()
	timer := time.NewTimer(limit)
	defer timer.Stop()
	results := t.qn.Results
	var runErr error
	for aggOpen, qOpen := true, true; aggOpen || qOpen; {
		select {
		case err := <-t.aDone:
			aggOpen = false
			runErr = errors.Join(runErr, err)
		case err := <-t.qDone:
			qOpen = false
			runErr = errors.Join(runErr, err)
		case res, ok := <-results:
			if !ok {
				results = nil
				continue
			}
			late(res)
		case <-timer.C:
			if err := dumpGoroutines(dumpPath); err != nil {
				return fmt.Errorf("%w (goroutine dump failed: %v)", errHung, err)
			}
			return fmt.Errorf("%w; goroutines dumped to %s", errHung, dumpPath)
		}
	}
	// Run closes Results before returning, so this drains what is buffered.
	if results != nil {
		for res := range results {
			late(res)
		}
	}
	return runErr
}

func dumpGoroutines(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("goroutine").WriteTo(f, 2); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
