package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// parts is how many processes an untraced run measures in, one after
// another, each on trees of its own for an equal share of the run's
// seconds. A process settles into a CPU regime of its own: on a 2-vCPU
// virtual machine, cpu_ms_per_epoch of single frames-narrow processes fell
// into two modes about 15% apart, while windows of one process agreed. A run of one
// process was one draw of that regime; the median over eight is steadier.
const parts = 8

// partLength is each measuring process's share of a run of seconds.
func partLength(seconds int) time.Duration {
	return time.Duration(seconds) * time.Second / parts
}

// runParts is the untraced run: it pre-generates the stream once, runs the
// measuring processes one at a time, waiting for each, and combines their
// results.
func runParts(w workload, seed int64, seconds int) (*result, error) {
	d := partLength(seconds)
	_, cached, err := loadStream(w, seed, w.streamEpochs(phasesFor(d)), filepath.Join(outDir, "cache"))
	if err != nil {
		return nil, fmt.Errorf("pre-generating the replay stream: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(outDir, "parts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var ps []*result
	for i := 0; i < parts; i++ {
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-part%d.json", w.name, seed, i))
		os.Remove(path)
		cmd := exec.Command(exe, "part", "--workload", w.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--out", path)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("measuring process %d: %w", i, err)
		}
		p, err := loadResults([]string{path})
		if err != nil {
			return nil, err
		}
		ps = append(ps, p[0])
	}
	return combine(w, seed, seconds, cached, ps), nil
}

// partMain is the part command: one measuring process of an untraced run,
// which writes its result to a file for the run to combine.
func partMain(args []string) error {
	fs := flag.NewFlagSet("part", flag.ContinueOnError)
	name := fs.String("workload", "", "workload")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", runSeconds, "measuring time of the whole run")
	out := fs.String("out", "", "file the result is written to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || *out == "" {
		return fmt.Errorf("part needs --seconds ≥ 1 and --out")
	}
	res, err := run(w, *seed, *seconds, partLength(*seconds), false)
	if err != nil {
		return err
	}
	return res.saveTo(*out)
}

// combine folds the measuring processes of one run into its result. Counts
// add up and windows pool; eps, eps_wall, steal_frac, cpu_ms_per_epoch and
// setup_s are medians over the pooled windows and set-ups, the other
// figures medians over the processes (gen.lag_ms their worst).
func combine(w workload, seed int64, seconds int, cached bool, ps []*result) *result {
	r := newResult(w, seed, seconds, false, cached)
	r.Windows = map[string][]float64{}
	var p50, p90, rss []float64
	lag := 0.0
	for i, p := range ps {
		r.Tally.add(p.Tally)
		for name, v := range p.Windows {
			r.Windows[name] = append(r.Windows[name], v...)
		}
		p50 = append(p50, p.Metrics["lat_p50_ms"].Value)
		p90 = append(p90, p.Metrics["lat_p90_ms"].Value)
		rss = append(rss, p.Metrics["rss_mb"].Value)
		lag = max(lag, p.Metrics["gen.lag_ms"].Value)
		for _, n := range p.Notes {
			r.note(fmt.Sprintf("process %d: %s", i, n))
		}
	}
	r.Windows["rss_mb"] = rss
	r.set("eps", median(r.Windows["eps"]))
	r.set("eps_wall", median(r.Windows["eps_wall"]))
	r.set("steal_frac", median(r.Windows["steal_frac"]))
	r.set("cpu_ms_per_epoch", median(r.Windows["cpu_ms_per_epoch"]))
	r.set("setup_s", median(r.Windows["setup_s"]))
	r.set("rss_mb", median(rss))
	r.set("lat_p50_ms", median(p50))
	r.set("lat_p90_ms", median(p90))
	r.set("gen.lag_ms", lag)
	r.finish()
	return r
}
