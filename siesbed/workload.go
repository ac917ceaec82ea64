package main

import (
	"fmt"
	"time"
)

// workload is one input shape of the benchmark: a querier ← aggregator tree
// whose aggregator has c raw child connections, each standing for a subtree
// of n/c sources.
type workload struct {
	name    string
	n       int  // sources in the deployment
	c       int  // child connections (subtrees) the generator drives
	durable bool // querier and aggregator journal into a fresh state dir
	// listed workloads are the ones BENCHMARK.json names, so every change is
	// measured on them. An unlisted one runs only when asked for by name.
	listed bool

	// pacedEPS is the paced phase's offered rate, 30-50% of the workload's
	// saturate eps when it was chosen, so the tree is busy but not backlogged.
	pacedEPS float64
	// maxEPS sizes the closed loop's share of the stream: each saturate
	// window gets maxEPS × its length epochs. A tree that answers them all
	// early is timed to its last answer, so eps is not capped at maxEPS.
	maxEPS float64
	// rssEpochs is how many answered epochs rss_mb is read at. The nodes'
	// dedup windows grow with every epoch up to 65536, so a fixed count
	// keeps a faster tree from reading as one that uses more memory. It is
	// set so a slow host still reaches it within one measuring process.
	rssEpochs int
	why       string
}

// workloads is the benchmark's fixed table. Each workload stresses a
// different layer, and each one's why is the line recorded in BENCHMARK.json.
var workloads = []workload{
	{
		name: "verify-wide", n: 1024, c: 2, listed: true,
		pacedEPS: 650, maxEPS: 2200, rssEpochs: 1500,
		why: "N=1024: querier verification (Theta(N) PRF derivations per epoch) dominates; 3 frames per epoch leave the aggregator and wire idle",
	},
	{
		name: "frames-narrow", n: 16, c: 2, listed: true,
		pacedEPS: 5000, maxEPS: 20000, rssEpochs: 12000,
		why: "N=16: verification is ~16 derivations, so per-frame work dominates: codec, syscalls, aggregator ingest and merge, querier serve loop",
	},
	// durable-narrow is unlisted: its eps and latency follow the shared
	// disk's fsync latency, which moved its eps by half between runs of one
	// build on a 2-vCPU host, past any bound BENCHMARK.json allows. The
	// traced runs of the listed workloads still measure the durable layer.
	{
		name: "durable-narrow", n: 16, c: 2, durable: true,
		pacedEPS: 1000, maxEPS: 8000, rssEpochs: 3000,
		why: "frames-narrow plus querier and aggregator state dirs: journal appends, fsyncs and checkpoints sit on the commit path",
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// covers splits the deployment's ids into c contiguous subtrees.
func (w workload) covers() [][]int {
	out := make([][]int, w.c)
	for j := range out {
		lo, hi := j*w.n/w.c, (j+1)*w.n/w.c
		for id := lo; id < hi; id++ {
			out[j] = append(out[j], id)
		}
	}
	return out
}

// phases is how one measuring process of d divides its time: a closed-loop
// warm-up, then 2 rounds per second of d of one saturate window and one
// paced window. Interleaving lets both phases sample the host across the
// whole process, so a stretch of interference from a neighbour on the host
// lands on both rather than on one phase.
type phases struct {
	warm     time.Duration
	rounds   int
	saturate time.Duration // per round
	paced    time.Duration // per round
}

func phasesFor(d time.Duration) phases {
	return phases{
		warm:     max(d/20, 500*time.Millisecond),
		rounds:   max(1, int(2*d/time.Second)),
		saturate: 200 * time.Millisecond,
		paced:    250 * time.Millisecond,
	}
}

// pacedCount is the number of epochs one paced window offers.
func (w workload) pacedCount(p phases) int {
	return int(w.pacedEPS * p.paced.Seconds())
}

// budget is a closed-loop window's share of the stream: a faster tree
// drains its share early (and is timed over the span it covered) instead of
// eating the epochs later windows need.
func (w workload) budget(window time.Duration) int {
	return max(1, int(w.maxEPS*window.Seconds()))
}

// streamEpochs is how many epochs a run of these phases can consume: one
// for the set-ups, each closed-loop window's budget, and the paced windows.
// The traced run splits each saturate window in two halves with half the
// budget each, so both modes replay the same stream.
func (w workload) streamEpochs(p phases) int {
	return 1 + w.budget(p.warm) + p.rounds*(2*w.budget(p.saturate/2)+w.pacedCount(p))
}
