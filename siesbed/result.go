package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/sies/sies/internal/obs"
	"github.com/sies/sies/internal/transport"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// host is the shape and provenance every result carries. Results from
// unlike host shapes are never compared.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
}

func (h host) shape() string { return fmt.Sprintf("nproc=%d gomaxprocs=%d", h.NProc, h.GOMAXPROCS) }

func currentHost() host {
	rev := os.Getenv("SIESBED_REV") // set by run.sh from git, "-dirty" marked
	if rev == "" {
		rev = "unknown"
	}
	return host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GitRev: rev}
}

// verdict says whether a workload still stresses the layer it was chosen
// for, computed from the traced run's figures.
type verdict struct {
	Pass   bool   `json:"pass"`
	Reason string `json:"reason"`
}

// result is everything one run measured; it is saved as JSON and its
// contract line is the last line of standard output.
type result struct {
	Workload     string               `json:"workload"`
	Seed         int64                `json:"seed"`
	Seconds      int                  `json:"seconds"`
	Traced       bool                 `json:"traced"`
	StreamCached bool                 `json:"stream_cached"`
	Host         host                 `json:"host"`
	Time         time.Time            `json:"time"`
	Correct      bool                 `json:"correct"`
	Tally        tally                `json:"tally"`
	FailedRatio  float64              `json:"failed_ratio"`
	Metrics      map[string]metric    `json:"metrics"`
	Windows      map[string][]float64 `json:"windows"` // per-window values behind the medians
	Verdict      *verdict             `json:"verdict,omitempty"`
	Notes        []string             `json:"notes,omitempty"`

	hung  bool        // a teardown missed its deadline: the whole run failed
	spans []nodeSpans // the nodes' own epoch spans, traced run only
	mem   *footprint  // the readings behind rss_mb
}

func newResult(w workload, seed int64, seconds int, traced, cached bool) *result {
	return &result{
		Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced, StreamCached: cached,
		Host: currentHost(), Time: time.Now().UTC(), Metrics: map[string]metric{},
	}
}

func (r *result) set(name string, v float64) { r.Metrics[name] = metric{v, unitOf(name)} }

func (r *result) note(msg string) { r.Notes = append(r.Notes, msg) }

// closeTree tears t down within teardownLimit. Answers arriving meanwhile
// are still checked; a teardown that hangs is reported with a goroutine
// dump and fails the run, and the benchmark carries on.
func (r *result) closeTree(t *tree, gen *generator, w workload, seed int64) {
	dump := filepath.Join(outDir, "hangs", fmt.Sprintf("%s-seed%d-%d.txt", w.name, seed, time.Now().UnixNano()))
	err := t.close(teardownLimit, dump, func(res transport.EpochResult) { gen.accept(res, time.Now()) })
	if err != nil {
		r.note("teardown: " + err.Error())
		r.hung = r.hung || errors.Is(err, errHung)
	}
}

// readInstruments reads the nodes' own metrics registries and epoch
// tracers at the end of the traced phases.
func (r *result) readInstruments(t *tree, durable bool) {
	q, a := t.qn.Metrics().Snapshot(), t.agg.Metrics().Snapshot()
	evals := q["sies_schedule_evaluations_total"]
	r.set("core.derivations_per_epoch", ratio(q["sies_schedule_derivations_total"], evals))
	r.set("core.prefetch_win_ratio", ratio(q["sies_schedule_prefetch_wins_total"], q["sies_schedule_prefetches_total"]))
	// Without coalescing the aggregator writes one frame per upstream write,
	// and the serial querier one ack per write; the batched plane's own
	// counters replace these figures when it is on.
	r.set("transport.upstream_frames_per_write", 1)
	if b := a["sies_agg_upstream_batches_total"]; b > 0 {
		r.set("transport.upstream_frames_per_write", a["sies_agg_upstream_frames_total"]/b)
	}
	r.set("transport.ack_frames_per_batch", 1)
	if n := q["sies_pipe_ack_batch_frames_count"]; n > 0 {
		r.set("transport.ack_frames_per_batch", q["sies_pipe_ack_batch_frames_sum"]/n)
	}
	flushes := a["sies_agg_flushes_total"]
	r.set("agg.contention_per_epoch", ratio(a["sies_agg_shard_contention_total"], flushes))
	r.set("agg.ingest_retries_per_epoch", ratio(a["sies_agg_ingest_retries_total"], flushes))
	r.set("agg.report_to_flush_us", stageGapUS(t.agg.Tracer().Recent(0), obs.StageReport, obs.StageFlush))
	qs := t.qn.Tracer().Recent(0)
	r.set("querier.report_to_verify_us", stageGapUS(qs, obs.StageReport, obs.StageVerify))
	r.set("querier.verify_to_commit_us", stageGapUS(qs, obs.StageVerify, obs.StageCommit))
	if durable {
		r.durableFigures(q, a)
	}
	if h := t.qn.Health(); h.Rejected != uint64(r.Tally.Rejected) {
		r.note(fmt.Sprintf("querier Health counts %d rejected epochs, the generator %d", h.Rejected, r.Tally.Rejected))
	}
	r.spans = append(r.spans, nodeSpans{"querier", qs}, nodeSpans{"aggregator", t.agg.Tracer().Recent(0)})
}

// durableFigures reads commit batching and checkpoint rate from the
// querier (q) and aggregator (a) metric snapshots of a durable tree.
func (r *result) durableFigures(q, a map[string]float64) {
	r.set("durable.commits_per_sync", ratio(q["sies_durability_commits_total"], q["sies_wal_syncs_total"]))
	checkpoints := q["sies_durability_checkpoints_total"] + a["sies_agg_durability_checkpoints_total"]
	r.set("durable.checkpoints_per_kepoch", 1000*ratio(checkpoints, q["sies_schedule_evaluations_total"]))
}

// probeDurable measures the durable layer on a workload that runs without
// state: the same tree once more with fresh state dirs, one second of
// closed loop, then its journal counters. Its answers are checked like all
// others.
func (r *result) probeDurable(w workload, st *stream, seed int64, dir string) error {
	t, err := buildTree(w, st, dir)
	if err != nil {
		return fmt.Errorf("durable probe: %w", err)
	}
	gen := newGenerator(st, &r.Tally)
	gen.attach(t)
	_, _, err = gen.saturate(1, min(st.epochs, int(w.maxEPS)), time.Second)
	if err == nil {
		r.durableFigures(t.qn.Metrics().Snapshot(), t.agg.Metrics().Snapshot())
	}
	r.closeTree(t, gen, w, seed)
	return err
}

// replayLayers runs each layer's public functions alone on the workload's
// recorded inputs, after the tree is gone, so they share the host with
// nothing else.
func (r *result) replayLayers(w workload, st *stream, seed int64, stateRoot string) error {
	ns, err := deriveNS(st)
	if err != nil {
		return fmt.Errorf("prf replay: %w", err)
	}
	r.set("prf.derive_ns", ns)
	us, err := verifyUS(w, st)
	if err != nil {
		return err
	}
	r.set("core.verify_us", us)
	enc, merge, err := encryptMerge(w, st)
	if err != nil {
		return err
	}
	r.set("core.encrypt_ns", enc)
	r.set("core.merge_ns_per_psr", merge)
	frameEnc, frameDec, err := codecNS(st)
	if err != nil {
		return err
	}
	r.set("transport.encode_ns", frameEnc)
	r.set("transport.decode_ns", frameDec)
	if !w.durable {
		if err := r.probeDurable(w, st, seed, filepath.Join(stateRoot, "probe")); err != nil {
			if !errors.Is(err, errLost) {
				return err
			}
			r.note(err.Error())
		}
	}
	dir := ""
	if w.durable {
		dir = filepath.Join(stateRoot, "isolated")
	}
	dump := filepath.Join(outDir, "hangs", fmt.Sprintf("%s-isolated-%d.txt", w.name, time.Now().UnixNano()))
	eps, err := isolatedAggEPS(w, st, dir, dump)
	if err != nil {
		if !errors.Is(err, errHung) {
			return err
		}
		r.note(err.Error())
		r.hung = true
	}
	r.set("agg.isolated_eps", eps)
	sync, err := appendSyncUS(filepath.Join(stateRoot, "journal-probe"))
	if err != nil {
		return fmt.Errorf("journal replay: %w", err)
	}
	r.set("durable.append_sync_us", sync)
	return nil
}

// nodeSpans is one node's epoch-lifecycle spans from its own tracer.
type nodeSpans struct {
	Node  string     `json:"node"`
	Spans []obs.Span `json:"epochs"`
}

// writeSpans writes the benchmark's spans and the nodes' epoch spans to
// one JSON file when the traced run ends.
func (r *result) writeSpans(dir string, l *spanLog) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var bench []span
	if l != nil {
		bench = l.spans
	}
	data, err := json.Marshal(struct {
		Benchmark []span      `json:"benchmark"`
		Nodes     []nodeSpans `json:"nodes"`
	}{bench, r.spans})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.Workload, r.Seed))
	r.note("spans written to " + path)
	return os.WriteFile(path, data, 0o644)
}

// judge computes the workload-validity verdict from the traced figures.
func (r *result) judge(w workload) {
	m := func(n string) float64 { return r.Metrics[n].Value }
	verifyMS := m("core.derivations_per_epoch") * m("prf.derive_ns") / 1e6
	share := verifyMS / m("cpu_ms_per_epoch")
	switch {
	case w.durable:
		// Every epoch commits twice on one disk, in the querier's journal and
		// in the aggregator's, so the fsync bound is half the per-journal one.
		predicted := m("durable.commits_per_sync") * 1e6 / (2 * m("durable.append_sync_us"))
		x := m("eps") / predicted
		r.Verdict = &verdict{x >= 0.5 && x <= 2, fmt.Sprintf(
			"eps %.0f is %.2fx the fsync bound commits_per_sync/(2 x append_sync_us) = %.0f (PASS within 0.5-2x)", m("eps"), x, predicted)}
	case w.n >= 256:
		r.Verdict = &verdict{share >= 0.5, fmt.Sprintf(
			"verification (derivations x derive_ns = %.3f ms) is %.0f%% of cpu_ms_per_epoch %.3f (PASS at >= 50%%)", verifyMS, 100*share, m("cpu_ms_per_epoch"))}
	default:
		r.Verdict = &verdict{share <= 0.2, fmt.Sprintf(
			"verification (derivations x derive_ns = %.3f ms) is %.0f%% of cpu_ms_per_epoch %.3f (PASS at <= 20%%)", verifyMS, 100*share, m("cpu_ms_per_epoch"))}
	}
}

// finish settles correctness and the failure counts.
func (r *result) finish() {
	r.Correct = !r.Tally.answeredWrongly()
	if r.hung {
		r.Tally.Lost += r.Tally.Attempted - r.Tally.failed() // the whole run counts as failed
	}
	r.FailedRatio = float64(r.Tally.failed()) / float64(max(1, r.Tally.Attempted))
}

// line is the contract's result line: correctness, counts, and the metrics
// of the run's kind (end-to-end untraced, per-layer traced).
func (r *result) line() any {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	metrics := map[string]metric{}
	for _, d := range defs {
		metrics[d.Name] = metric{r.Metrics[d.Name].Value, d.Unit}
	}
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Tally.Attempted, r.Tally.failed(), metrics}
}

func (r *result) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, map[bool]int{false: 0, true: 1}[r.Traced])
	return r.saveTo(filepath.Join(dir, name))
}

func (r *result) saveTo(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// print writes the human-readable report.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "siesbed %s seed=%d seconds=%d traced=%v stream_cached=%v\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.StreamCached)
	fmt.Fprintf(w, "host: %s go=%s rev=%s\n", r.Host.shape(), r.Host.GoVersion, r.Host.GitRev)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	t := r.Tally
	fmt.Fprintf(w, "  %-36s %14.4f ratio (%d of %d attempted: %d lost, %d rejected, %d partial, %d duplicated, %d wrong)\n",
		"failed_ratio", r.FailedRatio, t.failed(), t.Attempted, t.Lost, t.Rejected, t.Partial, t.Duplicate, t.Wrong)
	if r.Verdict != nil {
		word := "FAIL"
		if r.Verdict.Pass {
			word = "PASS"
		}
		fmt.Fprintf(w, "verdict %s: %s: %s\n", r.Workload, word, r.Verdict.Reason)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
}

// percentile is the q-quantile of an unsorted sample.
func percentile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}
