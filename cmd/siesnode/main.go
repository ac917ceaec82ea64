// Command siesnode runs one party of a networked SIES deployment over TCP.
// Keys come from credential files written by cmd/sieskeys; the wire protocol
// is internal/transport's framed PSR exchange.
//
// A minimal 4-source, single-aggregator cluster on one machine:
//
//	sieskeys -n 4 -out ./deploy
//	siesnode -role querier    -creds ./deploy/querier.json    -listen :7000 &
//	siesnode -role aggregator -creds ./deploy/aggregator.json \
//	         -listen :7001 -parent 127.0.0.1:7000 -children 4 &
//	siesnode -role source -creds ./deploy/source-0.json -parent 127.0.0.1:7001 \
//	         -epochs 10 -value 100 &
//	... (sources 1–3 likewise)
//
// Sources can send a fixed -value per epoch or a synthetic temperature
// stream (-value 0 switches to the workload generator).
//
// Fault injection: -chaosSeed with any of -chaosDrop/-chaosDelay/-chaosReset
// routes this node's links through a deterministic chaos injector, exercising
// the reconnect/backoff path end to end. -reconnectWindow bounds how long an
// aggregator keeps an epoch open for a returning child.
//
// Self-healing: -parents gives sources and aggregators a ranked candidate
// list — when the preferred parent's redial budget is exhausted the node
// re-homes to the next candidate with an epoch-fenced hello. -accept-new lets
// an aggregator (a failover target or childless hot standby) adopt re-homing
// children it was never provisioned with. On SIGINT/SIGTERM, sources and
// aggregators announce a graceful Leave upstream before closing, so the
// querier records a departure instead of a permanent failure.
//
// Durability: -state-dir makes queriers and aggregators crash-recoverable —
// every epoch commit is journaled there and a restarted process resumes at
// its exact pre-crash frontier. SIGINT/SIGTERM trigger a graceful drain
// (close the listener, settle in-flight epochs, sync the journal) bounded by
// -drain; a kill -9 is also safe, it just replays the journal on restart.
//
// Observability: -metrics-addr :9100 serves the node's metrics registry over
// HTTP — /metrics (Prometheus text), /healthz (503 on journal errors),
// /trace/epochs?n=K (recent epoch lifecycle spans as JSON) and /debug/pprof.
// Off by default; no listener is opened without the flag.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/sies/sies/internal/chaos"
	"github.com/sies/sies/internal/core"
	"github.com/sies/sies/internal/creds"
	"github.com/sies/sies/internal/obs"
	"github.com/sies/sies/internal/prf"
	"github.com/sies/sies/internal/transport"
	"github.com/sies/sies/internal/workload"
)

var (
	flagRole     = flag.String("role", "", "node role: querier, aggregator, or source")
	flagCreds    = flag.String("creds", "", "credential file from sieskeys")
	flagListen   = flag.String("listen", "", "listen address (querier, aggregator)")
	flagParent   = flag.String("parent", "", "parent address (aggregator, source)")
	flagParents  = flag.String("parents", "", "comma-separated ranked parent addresses for failover dialing; supersedes -parent (aggregator, source)")
	flagChildren = flag.Int("children", 0, "number of children to wait for (aggregator)")
	flagAccept   = flag.Bool("accept-new", false, "accept re-homing children with unknown coverage mid-run — failover targets and standbys (aggregator)")
	flagTimeout  = flag.Duration("timeout", 2*time.Second, "per-epoch child timeout (aggregator)")
	flagEpochs   = flag.Int("epochs", 10, "epochs to report (source)")
	flagPeriod   = flag.Duration("period", time.Second, "epoch duration T (source)")
	flagValue    = flag.Uint64("value", 0, "fixed reading per epoch; 0 = synthetic temperatures (source)")
	flagN        = flag.Int("n", 0, "total sources in the deployment (querier; default from creds)")

	flagStateDir = flag.String("state-dir", "",
		"durable state directory (querier, aggregator): journal every epoch commit and recover the exact frontier after a crash")
	flagMetricsAddr = flag.String("metrics-addr", "",
		"serve /metrics (Prometheus text), /healthz, /trace/epochs and /debug/pprof on this address (empty disables)")
	flagProfileContention = flag.Int("profile-contention", 0,
		"mutex/block profiling sample rate for /debug/pprof/{mutex,block} (1 = every event, 0 = off; needs -metrics-addr)")
	flagShards = flag.Int("shards", 0,
		"aggregator epoch-table stripe count, rounded up to a power of two (0 = default; 1 serialises the table)")
	flagMergeWorkers = flag.Int("merge-workers", 0,
		"aggregator merge-plane worker count (0 = default min(4, GOMAXPROCS); 1 serialises flushes)")
	flagDrain = flag.Duration("drain", 5*time.Second,
		"graceful-drain deadline on SIGINT/SIGTERM before the process exits anyway")

	flagReconnect  = flag.Duration("reconnectWindow", 0, "how long an aggregator holds epochs open for returning children (0 = -timeout)")
	flagChaosSeed  = flag.Int64("chaosSeed", 0, "seed for deterministic fault injection (0 disables chaos)")
	flagChaosDrop  = flag.Float64("chaosDrop", 0, "per-frame drop probability on this node's links")
	flagChaosDelay = flag.Duration("chaosDelay", 0, "maximum injected per-write delay (drawn uniformly)")
	flagChaosReset = flag.Float64("chaosReset", 0, "per-write connection reset probability")
)

// injector builds the chaos injector from the -chaos* flags, or nil when
// chaos is disabled. All of a node's links share one injector so a single
// seed replays the whole fault sequence.
func injector() *chaos.Injector {
	if *flagChaosSeed == 0 {
		return nil
	}
	cfg := chaos.Config{
		Seed:      *flagChaosSeed,
		DropProb:  *flagChaosDrop,
		MaxDelay:  *flagChaosDelay,
		ResetProb: *flagChaosReset,
	}
	if cfg.MaxDelay > 0 {
		cfg.DelayProb = 0.5
	}
	return chaos.New(cfg)
}

// backoff is the redial policy shared by every role. Seeding it from
// -chaosSeed makes the jitter sequence — and with it a whole chaos run —
// reproducible from a single number.
func backoff() transport.Backoff {
	return transport.Backoff{Seed: *flagChaosSeed}
}

// rankedParents splits -parents into the ranked failover list, nil when the
// flag is unset (single -parent deployments).
func rankedParents() []string {
	if *flagParents == "" {
		return nil
	}
	var out []string
	for _, a := range strings.Split(*flagParents, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// serveMetrics starts the observability endpoint when -metrics-addr is set.
// healthz reports degraded (HTTP 503) on durability journal errors — the node
// keeps serving, but its crash-recovery guarantee has a hole.
func serveMetrics(reg *obs.Registry, tracer *obs.Tracer, dur func() transport.DurabilityStats) (*obs.Server, error) {
	if *flagMetricsAddr == "" {
		return nil, nil
	}
	srv, err := obs.Serve(*flagMetricsAddr, obs.ServerConfig{
		Registry:          reg,
		Tracer:            tracer,
		ProfileContention: *flagProfileContention,
		Healthz: func() (bool, string) {
			if dur != nil {
				if d := dur(); d.JournalErrors > 0 {
					return false, fmt.Sprintf("degraded: %d journal errors", d.JournalErrors)
				}
			}
			return true, "ok"
		},
	})
	if err != nil {
		return nil, fmt.Errorf("metrics server: %w", err)
	}
	fmt.Printf("metrics on http://%s/metrics\n", srv.Addr())
	return srv, nil
}

func main() {
	flag.Parse()
	var err error
	switch *flagRole {
	case "querier":
		err = runQuerier()
	case "aggregator":
		err = runAggregator()
	case "source":
		err = runSource()
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "siesnode:", err)
		os.Exit(1)
	}
}

// runUntilSignal waits for the node's run loop to finish or for
// SIGINT/SIGTERM. On a signal it calls drain (which must make the run loop
// return: close the listener, sync and close the journal) and then waits at
// most -drain for in-flight epochs to settle before giving up.
func runUntilSignal(done <-chan error, drain func()) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-done:
		return err
	case s := <-sig:
		fmt.Printf("%v: draining (deadline %v)\n", s, *flagDrain)
		drain()
		select {
		case err := <-done:
			return err
		case <-time.After(*flagDrain):
			fmt.Println("drain deadline exceeded; exiting with epochs possibly in flight")
			return nil
		}
	}
}

func runQuerier() error {
	ring, field, err := creds.LoadQuerier(*flagCreds)
	if err != nil {
		return err
	}
	n := ring.N()
	if *flagN != 0 && *flagN != n {
		return fmt.Errorf("-n %d disagrees with credential file (%d sources)", *flagN, n)
	}
	params, err := core.NewParams(n, core.WithField(field))
	if err != nil {
		return err
	}
	q, err := core.NewQuerier(ring, params)
	if err != nil {
		return err
	}
	node, err := transport.NewQuerierNodeConfig(transport.QuerierConfig{
		ListenAddr: *flagListen,
		Schedule:   core.ScheduleConfig{Prefetch: true},
		StateDir:   *flagStateDir,
	}, q)
	if err != nil {
		return err
	}
	msrv, err := serveMetrics(node.Metrics(), node.Tracer(), node.DurabilityStats)
	if err != nil {
		node.Close()
		return err
	}
	if msrv != nil {
		defer msrv.Close()
	}
	fmt.Printf("querier listening on %s for %d sources\n", node.Addr(), n)
	if *flagStateDir != "" {
		if d := node.DurabilityStats(); d.ReplayedFromWAL > 0 {
			fmt.Printf("recovered from %s: frontier epoch %d (%d journal records replayed)\n",
				*flagStateDir, d.ReplayedFromWAL, d.ReplayedRecords)
		} else {
			fmt.Printf("durable state in %s\n", *flagStateDir)
		}
	}
	go func() {
		for res := range node.Results {
			if res.Err != nil {
				fmt.Printf("epoch %d: REJECTED (%v)\n", res.Epoch, res.Err)
				continue
			}
			fmt.Printf("epoch %d: SUM = %d from %d sources (failed: %v)\n",
				res.Epoch, res.Sum, res.Contributors, res.Failed)
		}
	}()
	done := make(chan error, 1)
	go func() { done <- node.Run() }()
	// SIGINT/SIGTERM drain: Close stops the listener and hangs up on the root;
	// Run journals what it has already read and syncs the journal as it
	// returns, so the committed frontier survives into the next -state-dir
	// start.
	err = runUntilSignal(done, func() { node.Close() })
	h := node.Health()
	ks := h.KeySchedule
	fmt.Printf("health: %d epochs (%d full, %d partial, %d empty, %d rejected)\n",
		h.Epochs, h.Full, h.Partial, h.Empty, h.Rejected)
	fmt.Printf("key schedule: %d derivations, %d cache hits / %d misses, %d prefetch wins, avg eval %v\n",
		ks.Derivations, ks.Hits, ks.Misses, ks.PrefetchWins, ks.AvgEvalTime())
	if d := h.Durability; d.Enabled {
		fmt.Printf("durability: %d commits, %d checkpoints, %d dedup hits, %d journal errors\n",
			d.Commits, d.Checkpoints, d.DedupHits, d.JournalErrors)
	}
	return err
}

func runAggregator() error {
	field, err := creds.LoadAggregator(*flagCreds)
	if err != nil {
		return err
	}
	if *flagChildren < 1 && !*flagAccept {
		return fmt.Errorf("aggregator needs -children ≥ 1 (or -accept-new for a childless standby)")
	}
	cfg := transport.AggregatorConfig{
		ListenAddr:      *flagListen,
		ParentAddr:      *flagParent,
		ParentAddrs:     rankedParents(),
		NumChildren:     *flagChildren,
		AcceptNew:       *flagAccept,
		Timeout:         *flagTimeout,
		ReconnectWindow: *flagReconnect,
		StateDir:        *flagStateDir,
		Shards:          *flagShards,
		MergeWorkers:    *flagMergeWorkers,
		Backoff:         backoff(),
	}
	if inj := injector(); inj != nil {
		cfg.Dial = inj.Dial
		cfg.Listen = inj.Listen
		fmt.Printf("chaos enabled: seed=%d drop=%.2f delay=%v reset=%.2f\n",
			*flagChaosSeed, *flagChaosDrop, *flagChaosDelay, *flagChaosReset)
	}
	node, err := transport.NewAggregatorNode(cfg, field)
	if err != nil {
		return err
	}
	msrv, err := serveMetrics(node.Metrics(), node.Tracer(), node.DurabilityStats)
	if err != nil {
		node.Close()
		return err
	}
	if msrv != nil {
		defer msrv.Close()
	}
	fmt.Printf("aggregator up: %d children, covering sources %v\n", *flagChildren, node.Covers())
	if *flagStateDir != "" {
		if d := node.DurabilityStats(); d.ReplayedFromWAL > 0 {
			fmt.Printf("recovered from %s: flush frontier epoch %d (%d journal records replayed)\n",
				*flagStateDir, d.ReplayedFromWAL, d.ReplayedRecords)
		} else {
			fmt.Printf("durable state in %s\n", *flagStateDir)
		}
	}
	done := make(chan error, 1)
	go func() { done <- node.Run() }()
	// The drain announces a graceful Leave upstream first: the parent shrinks
	// its covered union, so this subtree's absence from later epochs reads as
	// an expected departure rather than a failure.
	err = runUntilSignal(done, func() { node.Leave(); node.Close() })
	if d := node.DurabilityStats(); d.Enabled {
		fmt.Printf("durability: %d commits, %d checkpoints, %d journal errors\n",
			d.Commits, d.Checkpoints, d.JournalErrors)
	}
	return err
}

func runSource() error {
	id, global, key, field, err := creds.LoadSource(*flagCreds)
	if err != nil {
		return err
	}
	// The layout is sized by the deployment; a standalone source only needs
	// an upper bound on N for its padding, which the querier's layout also
	// uses. Sources learn N at provisioning time; here we conservatively use
	// the maximum the 32-bit layout allows, which keeps padding compatible
	// across all deployment sizes ≤ 2^64 ... but padding must MATCH the
	// querier's. We therefore require -n.
	if *flagN < 1 {
		return fmt.Errorf("source needs -n (total sources, as provisioned)")
	}
	params, err := core.NewParams(*flagN, core.WithField(field))
	if err != nil {
		return err
	}
	src, err := core.NewSource(id, global, key, params)
	if err != nil {
		return err
	}
	scfg := transport.SourceConfig{ParentAddr: *flagParent, ParentAddrs: rankedParents(), Backoff: backoff()}
	if inj := injector(); inj != nil {
		scfg.Dial = inj.Dial
		fmt.Printf("chaos enabled: seed=%d drop=%.2f delay=%v reset=%.2f\n",
			*flagChaosSeed, *flagChaosDrop, *flagChaosDelay, *flagChaosReset)
	}
	node, err := transport.DialSourceWith(scfg, src)
	if err != nil {
		return err
	}
	defer node.Close()
	msrv, err := serveMetrics(node.Metrics(), nil, nil)
	if err != nil {
		return err
	}
	if msrv != nil {
		defer msrv.Close()
	}

	var gen *workload.Generator
	if *flagValue == 0 {
		if gen, err = workload.NewGenerator(1, int64(id)+1); err != nil {
			return err
		}
	}
	fmt.Printf("source %d reporting %d epochs every %v\n", id, *flagEpochs, *flagPeriod)
	// Sources hold no durable state; a graceful shutdown finishes the current
	// report, announces a Leave upstream (so the querier stops expecting this
	// source instead of flagging it failed forever) and closes the link
	// between epochs rather than tearing it down mid-frame.
	leave := func(s os.Signal, done prf.Epoch) {
		fmt.Printf("%v: leaving after %d epochs\n", s, done)
		if err := node.Leave(); err != nil {
			fmt.Printf("leave not delivered (%v); the querier will see this source as failed\n", err)
		}
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	for epoch := prf.Epoch(1); epoch <= prf.Epoch(*flagEpochs); epoch++ {
		select {
		case s := <-sig:
			leave(s, epoch-1)
			return nil
		default:
		}
		v := *flagValue
		if gen != nil {
			v = gen.Readings(workload.Scale100)[0]
		}
		if err := node.Report(epoch, v); err != nil {
			return err
		}
		if epoch < prf.Epoch(*flagEpochs) {
			select {
			case s := <-sig:
				leave(s, epoch)
				return nil
			case <-time.After(*flagPeriod):
			}
		}
	}
	return nil
}
