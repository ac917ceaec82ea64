package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"github.com/sies/sies/internal/core"
	"github.com/sies/sies/internal/prf"
	"github.com/sies/sies/internal/transport"
)

var (
	flagPipeline = flag.Bool("pipeline", false, "run the live-cluster throughput sweep over the batched I/O plane (epochs/sec over loopback TCP)")
	flagBaseline = flag.String("baseline", "", "BENCH_transport.json to gate against; fail on >20% epochs/sec regression")
)

// transportRows accumulates the transport-suite benchmark rows across the
// -pipeline and -aggmerge sweeps so one BENCH_transport.json holds both; main
// writes and gates it after every selected suite has run.
var transportRows []benchRow

// flushTransportRows writes the accumulated transport rows (with -json) and
// applies the baseline regression gate (with -baseline).
func flushTransportRows() error {
	if len(transportRows) == 0 {
		return nil
	}
	if *flagJSON {
		if err := writeBenchJSON("transport", transportRows); err != nil {
			return err
		}
	}
	if *flagBaseline != "" {
		if err := gateTransport(transportRows, *flagBaseline); err != nil {
			return err
		}
		fmt.Printf("(no regression beyond tolerance vs %s)\n", *flagBaseline)
	}
	return nil
}

// clusterReportBar is the transport shape check: reports/sec (N × epochs/sec)
// at the largest N must hold this fraction of the rate at the smallest N.
// Coalescing amortises per-frame syscalls, so the per-report cost must not
// grow with fanout.
const clusterReportBar = 0.75

// transportBench measures end-to-end epochs/sec of a live cluster — N source
// nodes streaming into one aggregator into the querier, all over loopback TCP
// — on the batched I/O plane: coalescing FrameWriters at every sender,
// buffered frame reads, the pipelined querier serve path with coalesced acks.
func transportBench() error {
	type sweep struct{ n, epochs int }
	sweeps := []sweep{{64, 800}, {256, 400}, {1024, 150}}
	if *flagQuick {
		sweeps = []sweep{{64, 400}, {256, 200}}
	}

	fmt.Printf("%-8s %8s %14s %14s\n", "N", "epochs", "epochs/sec", "reports/sec")
	var rows []benchRow
	for _, s := range sweeps {
		eps, err := runTransportEpochs(s.n, s.epochs)
		if err != nil {
			return fmt.Errorf("N=%d: %w", s.n, err)
		}
		rows = append(rows, benchRow{Op: "cluster/batched", N: s.n, NsPerOp: 1e9 / eps, EpochsPerSec: eps})
		fmt.Printf("%-8d %8d %14.0f %14.0f\n", s.n, s.epochs, eps, eps*float64(s.n))
	}
	transportRows = append(transportRows, rows...)

	first, last := rows[0], rows[len(rows)-1]
	ratio := (last.EpochsPerSec * float64(last.N)) / (first.EpochsPerSec * float64(first.N))
	fmt.Println()
	shapeVerdict(ratio >= clusterReportBar, fmt.Sprintf(
		"reports/sec at N=%d is %.2fx that at N=%d (bar: >=%.2fx, per-report cost flat in N)",
		last.N, ratio, first.N, clusterReportBar))
	return nil
}

// shapeVerdict prints a shape check computed from the rows just measured.
// It reports and does not gate: the -baseline comparison is the gate.
func shapeVerdict(pass bool, detail string) {
	verdict := "FAIL"
	if pass {
		verdict = "PASS"
	}
	fmt.Printf("Shape check %s: %s\n", verdict, detail)
}

// runTransportEpochs drives one cluster for the given number of epochs and
// returns end-to-end epochs/sec, timed from the first report to the last
// verified result.
func runTransportEpochs(n, epochs int) (float64, error) {
	q, sources, err := core.Setup(n)
	if err != nil {
		return 0, err
	}
	qn, err := transport.NewQuerierNodeConfig(transport.QuerierConfig{ListenAddr: "127.0.0.1:0"}, q)
	if err != nil {
		return 0, err
	}
	go qn.Run()

	aggAddr, err := loopbackAddr()
	if err != nil {
		return 0, err
	}
	// The aggregator constructor blocks until all n children have completed
	// their hello handshake, so it must run concurrently with the dials below.
	acfg := transport.AggregatorConfig{
		ListenAddr: aggAddr, ParentAddr: qn.Addr(),
		NumChildren: n, Timeout: 10 * time.Second,
	}
	aggReady := make(chan *transport.AggregatorNode, 1)
	aggDone := make(chan error, 1)
	go func() {
		agg, err := transport.NewAggregatorNode(acfg, q.Params().Field())
		aggReady <- agg
		if err != nil {
			aggDone <- err
			return
		}
		aggDone <- agg.Run()
	}()

	srcs := make([]*transport.SourceNode, n)
	for i, s := range sources {
		if srcs[i], err = dialSourceRetry(transport.SourceConfig{ParentAddr: aggAddr}, s); err != nil {
			return 0, err
		}
	}
	agg := <-aggReady
	if agg == nil {
		return 0, <-aggDone
	}

	done := make(chan error, 1)
	go func() {
		got := 0
		for res := range qn.Results {
			if res.Err != nil {
				done <- fmt.Errorf("epoch %d rejected: %w", res.Epoch, res.Err)
				return
			}
			if got++; got == epochs {
				done <- nil
				return
			}
		}
		done <- fmt.Errorf("results closed after %d/%d epochs", got, epochs)
	}()

	start := time.Now()
	for e := 1; e <= epochs; e++ {
		for i := range srcs {
			if err := srcs[i].Report(prf.Epoch(e), uint64(1000+i)); err != nil {
				return 0, err
			}
		}
	}
	if err := <-done; err != nil {
		return 0, err
	}
	elapsed := time.Since(start)

	for _, s := range srcs {
		s.Close()
	}
	agg.Close()
	<-aggDone
	qn.Close()
	return float64(epochs) / elapsed.Seconds(), nil
}

// dialSourceRetry retries a source dial briefly: the first dial races the
// aggregator goroutine's listen call on the pre-reserved port.
func dialSourceRetry(cfg transport.SourceConfig, s *core.Source) (*transport.SourceNode, error) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		src, err := transport.DialSourceWith(cfg, s)
		if err == nil || time.Now().After(deadline) {
			return src, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// loopbackAddr reserves a loopback port for a listener started right after.
func loopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// gateTransport fails when any row present in both runs regressed in
// epochs/sec against the committed baseline file: more than 20% for the
// cluster rows, more than 40% for the aggmerge microbenchmark rows, whose
// tens-of-milliseconds runs carry proportionally more scheduler noise on
// shared CI hosts.
func gateTransport(rows []benchRow, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base benchFile
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	old := map[string]float64{}
	for _, r := range base.Rows {
		old[fmt.Sprintf("%s/N=%d", r.Op, r.N)] = r.EpochsPerSec
	}
	var failed bool
	for _, r := range rows {
		key := fmt.Sprintf("%s/N=%d", r.Op, r.N)
		was, ok := old[key]
		if !ok || was <= 0 {
			continue // new sweep point; nothing to gate against
		}
		floor := 0.8
		if strings.HasPrefix(r.Op, "aggmerge/") {
			floor = 0.6
		}
		if r.EpochsPerSec < floor*was {
			failed = true
			fmt.Fprintf(os.Stderr, "REGRESSION %s: %.0f epochs/sec, baseline %.0f (-%.0f%%)\n",
				key, r.EpochsPerSec, was, 100*(1-r.EpochsPerSec/was))
		}
	}
	if failed {
		return fmt.Errorf("throughput regressed beyond tolerance vs %s (gitrev %s)", path, base.GitRev)
	}
	return nil
}
