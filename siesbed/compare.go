package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadResults reads every saved result under the given files or
// directories.
func loadResults(paths []string) ([]*result, error) {
	var out []*result
	for _, p := range paths {
		files := []string{p}
		if fi, err := os.Stat(p); err == nil && fi.IsDir() {
			if files, err = filepath.Glob(filepath.Join(p, "*.json")); err != nil {
				return nil, err
			}
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			var r result
			if err := json.Unmarshal(data, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			out = append(out, &r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no results under %s", strings.Join(paths, ", "))
	}
	return out, nil
}

// groupKey groups runs of one workload and kind.
func groupKey(r *result) string {
	if r.Traced {
		return r.Workload + " (traced)"
	}
	return r.Workload
}

// samples collects each metric's values per group.
func samples(rs []*result) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range rs {
		g := out[groupKey(r)]
		if g == nil {
			g = map[string][]float64{}
			out[groupKey(r)] = g
		}
		for n, m := range r.Metrics {
			g[n] = append(g[n], m.Value)
		}
		g["failed_ratio"] = append(g["failed_ratio"], r.FailedRatio)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// report prints, per workload and metric, the median of the saved runs and
// their spread: the interquartile distance as a share of the median, the
// figure each end-to-end metric's bound must cover.
func report(args []string) error {
	rs, err := loadResults(args)
	if err != nil {
		return err
	}
	shapes := map[string]bool{}
	for _, r := range rs {
		shapes[r.Host.shape()] = true
	}
	fmt.Printf("%d runs; host shapes: %s\n", len(rs), strings.Join(sortedKeys(shapes), "; "))
	bounds := map[string]float64{}
	for _, d := range endToEnd {
		bounds[d.Name] = *d.Bound
	}
	all := samples(rs)
	for _, g := range sortedKeys(all) {
		fmt.Println(g)
		for _, n := range sortedKeys(all[g]) {
			v := all[g][n]
			line := fmt.Sprintf("  %-36s n=%-3d median %12.4f", n, len(v), median(v))
			if len(v) >= 2 && median(v) != 0 {
				line += fmt.Sprintf("  spread %6.3f", spread(v))
				if b, ok := bounds[n]; ok {
					line += fmt.Sprintf(" (bound %.2f, target < %.3f)", b, b/3)
				}
			}
			fmt.Println(line)
		}
	}
	return nil
}

// compare sets the end-to-end medians of NEW against BASE, workload by
// workload, and refuses results from unlike host shapes.
func compare(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: compare BASE NEW (result files or directories)")
	}
	base, err := loadResults(args[:1])
	if err != nil {
		return err
	}
	head, err := loadResults(args[1:])
	if err != nil {
		return err
	}
	shape := base[0].Host.shape()
	for _, r := range append(append([]*result{}, base...), head...) {
		if r.Host.shape() != shape {
			return fmt.Errorf("refusing to compare unlike hosts: %q vs %q (seed %d, rev %s)",
				shape, r.Host.shape(), r.Seed, r.Host.GitRev)
		}
	}
	b, h := samples(base), samples(head)
	regressed := false
	for _, g := range sortedKeys(h) {
		if b[g] == nil {
			continue
		}
		fmt.Println(g)
		for _, d := range endToEnd {
			bv, hv := b[g][d.Name], h[g][d.Name]
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			bm, hm := median(bv), median(hv)
			worse := (hm - bm) / bm
			if d.Better == "higher" {
				worse = -worse
			}
			status := "ok"
			switch {
			case len(bv) >= 2 && spread(bv) > *d.Bound:
				status = "unresolved: base spread exceeds the bound"
			case worse > *d.Bound:
				status = "REGRESSED"
				regressed = true
			}
			fmt.Printf("  %-18s base %12.4f  new %12.4f  worse by %+7.1f%% (bound %.0f%%)  %s\n",
				d.Name, bm, hm, 100*worse, 100**d.Bound, status)
		}
	}
	if regressed {
		return errors.New("an end-to-end metric regressed beyond its bound")
	}
	return nil
}
