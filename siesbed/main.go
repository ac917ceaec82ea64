// Command siesbed is the repository's benchmark: a live querier ← aggregator
// SIES tree over loopback TCP, built exactly as siesnode builds it from its
// default flags, fed by a replay load generator with pre-encrypted,
// seed-derived subtree reports. Every answer is checked against the SUM the
// generator knows. See README.md for the workloads and metrics.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash siesbed/run.sh --workload verify-wide --seed 1 --seconds 20 --trace 0
//	bash siesbed/run.sh report .bench_build/siesbed/results
//	bash siesbed/run.sh compare BASE_DIR NEW_DIR
//	bash siesbed/run.sh manifest > BENCHMARK.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// outDir holds everything a run leaves behind, relative to the repository
// root the benchmark runs from.
const outDir = ".bench_build/siesbed"

// setupReps is how many times each measuring process brings a tree up;
// setup_s is the median over every process of the run, and each process's
// last tree goes on to the measured phases.
const setupReps = 4

// teardownLimit bounds each tree's Close/Run return.
const teardownLimit = 10 * time.Second

func main() {
	if len(os.Args) > 1 {
		var err error
		switch os.Args[1] {
		case "report":
			err = report(os.Args[2:])
		case "compare":
			err = compare(os.Args[2:])
		case "pregen":
			err = pregenMain(os.Args[2:])
		case "part":
			err = partMain(os.Args[2:])
		case "manifest":
			var b []byte
			if b, err = encodeManifest(buildManifest()); err == nil {
				_, err = os.Stdout.Write(b)
			}
		default:
			err = runMain()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "siesbed:", err)
			os.Exit(1)
		}
		return
	}
	flag.Usage()
	os.Exit(2)
}

func runMain() error {
	var (
		name    = flag.String("workload", "", "workload to run (see README.md)")
		seed    = flag.Int64("seed", 1, "workload seed: keys, readings and the replay stream derive from it")
		seconds = flag.Int("seconds", runSeconds, "measuring time of the run")
		trace   = flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	var res *result
	if *trace == 1 {
		res, err = run(w, *seed, *seconds, time.Duration(*seconds)*time.Second, true)
	} else {
		res, err = runParts(w, *seed, *seconds)
	}
	if err != nil {
		return err
	}
	if err := res.save(filepath.Join(outDir, "results")); err != nil {
		return err
	}
	res.print(os.Stderr)
	line, err := json.Marshal(res.line())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s answered wrongly (%d wrong, %d duplicated): its speed is not valid",
			w.name, res.Tally.Wrong, res.Tally.Duplicate)
	}
	return nil
}

// run is one measuring process: set-ups, the measured phases of length d
// on the last tree, and in the traced run the instrument reads and layer
// replays. seconds is the length of the whole run, for the record.
func run(w workload, seed int64, seconds int, d time.Duration, traced bool) (*result, error) {
	ph := phasesFor(d)
	st, cached, err := loadStream(w, seed, w.streamEpochs(ph), filepath.Join(outDir, "cache"))
	if err != nil {
		return nil, fmt.Errorf("pre-generating the replay stream: %w", err)
	}
	res := newResult(w, seed, seconds, traced, cached)
	gen := newGenerator(st, &res.Tally)
	gen.lat = make([]float64, 0, ph.rounds*w.pacedCount(ph))
	// Start every run from a clean page cache: on a journaling filesystem
	// the first fsync of a durable workload would otherwise also write back
	// a fresh cache file.
	res.mem = newFootprint()
	syscall.Sync()

	// Set-up: key-ring provisioning through the first verified epoch, on a
	// fresh tree (and fresh state dirs) each time.
	stateRoot := filepath.Join(outDir, "state", fmt.Sprintf("%s-seed%d-pid%d", w.name, seed, os.Getpid()))
	defer os.RemoveAll(stateRoot)
	var setups []float64
	var t *tree
	for i := 0; i < setupReps; i++ {
		dir := ""
		if w.durable {
			dir = filepath.Join(stateRoot, fmt.Sprint(i))
		}
		start := time.Now()
		if t, err = buildTree(w, st, dir); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		gen.attach(t)
		err = gen.roundTrip(1)
		setups = append(setups, time.Since(start).Seconds())
		if err != nil || i == setupReps-1 {
			break
		}
		res.closeTree(t, gen, w, seed)
	}
	res.set("setup_s", median(setups))

	if err == nil {
		err = res.phases(w, gen, t, ph, traced)
	}
	if res.Windows == nil {
		res.Windows = map[string][]float64{}
	}
	res.Windows["setup_s"] = setups
	if errors.Is(err, errLost) {
		res.note(err.Error())
	} else if err != nil {
		return nil, err
	}
	if !res.mem.done {
		res.mem.measure()
		res.note(fmt.Sprintf("rss_mb read at the end of the run: the tree answered %d epochs, fewer than the %d it is read at", res.Tally.Verified, w.rssEpochs))
	}
	if res.mem.err != nil {
		return nil, fmt.Errorf("reading the resident set: %w", res.mem.err)
	}
	res.set("rss_mb", res.mem.mb())
	res.closeTree(t, gen, w, seed)

	if traced {
		if err := res.replayLayers(w, st, seed, stateRoot); err != nil {
			return nil, err
		}
		if err := res.writeSpans(filepath.Join(outDir, "spans"), gen.log); err != nil {
			return nil, err
		}
		res.judge(w)
	}
	res.finish()
	return res, nil
}

// phases runs the warm-up and the saturate/paced rounds on the set-up's
// last tree. The traced run splits each saturate window into an untraced
// and a traced half, whose gap is the tracing overhead. When epochs are
// lost the rounds stop, and the metrics come from the windows completed.
func (r *result) phases(w workload, gen *generator, t *tree, ph phases, traced bool) error {
	next := 2
	var err error
	if _, next, err = gen.saturate(next, next+w.budget(ph.warm)-1, ph.warm); err != nil {
		return err
	}
	var eps, wallEPS, steal, tracedEPS, cpu, p50, p90 []float64
	var lag, writeWait, tracedTime time.Duration
	satWindow := ph.saturate
	if traced {
		satWindow /= 2
	}
	round := func() error {
		gen.tracing(false)
		x, n, err := gen.saturate(next, next+w.budget(satWindow)-1, satWindow)
		if next = n; err != nil {
			return err
		}
		eps = append(eps, x.eps)
		wallEPS = append(wallEPS, x.wall)
		steal = append(steal, x.steal)
		r.footprint(w)
		if traced {
			gen.tracing(true)
			start, wait0 := time.Now(), gen.writeWait
			x, n, err := gen.saturate(next, next+w.budget(satWindow)-1, satWindow)
			if next = n; err != nil {
				return err
			}
			tracedEPS = append(tracedEPS, x.eps)
			tracedTime += time.Since(start)
			writeWait += gen.writeWait - wait0
		}
		cpu0, verified0, lat0 := cpuTime(), r.Tally.Verified, len(gen.lat)
		late, err := gen.paced(next, w.pacedCount(ph), w.pacedEPS)
		next += w.pacedCount(ph)
		if err != nil {
			return err
		}
		cpu = append(cpu, float64((cpuTime()-cpu0).Nanoseconds())/1e6/float64(max(1, r.Tally.Verified-verified0)))
		p50 = append(p50, median(gen.lat[lat0:]))
		p90 = append(p90, percentile(gen.lat[lat0:], 0.9))
		lag = max(lag, late)
		r.footprint(w)
		return nil
	}
	for i := 0; i < ph.rounds && err == nil; i++ {
		err = round()
	}
	// Throughput and CPU are the median window, so a stretch of interference
	// from the host moves them only when it covers half the run. Latency
	// pools every paced epoch of the run.
	r.set("eps", median(eps))
	r.set("eps_wall", median(wallEPS))
	r.set("steal_frac", median(steal))
	r.set("cpu_ms_per_epoch", median(cpu))
	r.set("lat_p50_ms", median(gen.lat))
	r.set("lat_p90_ms", percentile(gen.lat, 0.9))
	r.Windows = map[string][]float64{"eps": eps, "eps_wall": wallEPS, "steal_frac": steal,
		"cpu_ms_per_epoch": cpu, "lat_p50_ms": p50, "lat_p90_ms": p90}
	r.set("gen.lag_ms", float64(lag.Nanoseconds())/1e6)
	if traced {
		r.set("transport.gen_write_wait_frac", writeWait.Seconds()/tracedTime.Seconds())
		r.set("trace.overhead_frac", 1-median(tracedEPS)/median(eps))
		r.readInstruments(t, w.durable)
	}
	return err
}

// footprint reads rss_mb once the tree has answered the workload's
// rssEpochs epochs. It runs between windows, outside any timed span.
func (r *result) footprint(w workload) {
	if !r.mem.done && r.Tally.Verified >= w.rssEpochs {
		r.mem.measure()
	}
}

// pregenMain is the pregen command, which the benchmark runs in a child
// process on a cache miss: it encrypts a workload's replay stream and writes
// it to the cache file.
func pregenMain(args []string) error {
	fs := flag.NewFlagSet("pregen", flag.ContinueOnError)
	name := fs.String("workload", "", "workload")
	seed := fs.Int64("seed", 1, "workload seed")
	epochs := fs.Int("epochs", 0, "epochs in the stream")
	out := fs.String("out", "", "cache file to write")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	if *epochs < 1 || *out == "" {
		return errors.New("pregen needs --epochs ≥ 1 and --out")
	}
	return generateStream(w, *seed, *epochs, *out)
}
