package transport

import (
	"sync"
	"time"

	"github.com/sies/sies/internal/core"
	"github.com/sies/sies/internal/obs"
	"github.com/sies/sies/internal/prf"
	"github.com/sies/sies/internal/uint256"
)

// DefaultMergeWorkers bounds the parallel merge plane's default pool size;
// the actual default is min(DefaultMergeWorkers, GOMAXPROCS).
const DefaultMergeWorkers = 4

// mergeJob is one unit of merge-plane work: a claimed epoch to flush, or a
// drain sentinel (ack non-nil) used to barrier the pool.
type mergeJob struct {
	epoch   uint64
	ack     chan<- struct{}
	release <-chan struct{}
}

// mergePlane is the aggregator's flush worker pool. Claimed epoch slots are
// submitted here; workers merge, encode and forward them upstream in
// parallel. The channel is the only handoff: claiming a slot (under its shard
// lock) is what guarantees an epoch is submitted at most once.
type mergePlane struct {
	jobs    chan mergeJob
	workers int
	wg      sync.WaitGroup
}

func newMergePlane(workers int) *mergePlane {
	if workers < 1 {
		workers = 1
	}
	return &mergePlane{jobs: make(chan mergeJob, workers*64), workers: workers}
}

// start launches the pool. Must precede any submit.
func (p *mergePlane) start(a *AggregatorNode) {
	for i := 0; i < p.workers; i++ {
		p.wg.Add(1)
		go a.mergeWorker()
	}
}

// submit hands a claimed epoch to the pool, blocking when every worker is
// busy and the queue is full — backpressure onto the child readers. Callers
// must hold no locks: a worker may need the aggregator's read lock to make
// progress.
func (p *mergePlane) submit(epoch uint64) {
	p.jobs <- mergeJob{epoch: epoch}
}

// drain barriers the pool: it returns once every job submitted before the
// call has fully completed (including its upstream write). Used by the leave
// path to guarantee no in-flight flush carrying a leaver's data can be
// written upstream after the Leave relay. One sentinel per worker rides the
// FIFO queue; a worker parks on its sentinel until all have, which can only
// happen after every earlier job finished. Callers must hold no locks.
func (p *mergePlane) drain() {
	ack := make(chan struct{}, p.workers)
	release := make(chan struct{})
	for i := 0; i < p.workers; i++ {
		p.jobs <- mergeJob{ack: ack, release: release}
	}
	for i := 0; i < p.workers; i++ {
		<-ack
	}
	close(release)
}

// stop closes the queue and waits for the workers to exit. No submit or
// drain may follow.
func (p *mergePlane) stop() {
	close(p.jobs)
	p.wg.Wait()
}

// mergeScratch is a worker's reusable flush scratch: contributor extraction,
// per-report covers∖failed subtraction and the failed-set complement all run
// in these buffers, so a steady-state flush allocates only its wire payload —
// churned epochs (dirty rebuilds, unsorted contributors) included.
type mergeScratch struct {
	contrib []int
	minus   []int
	failed  []int
}

// mergeWorker consumes claimed epochs until the plane stops. A flush error on
// a live node fails the Run loop; on a closed or crashed node the remaining
// jobs are dropped.
func (a *AggregatorNode) mergeWorker() {
	defer a.plane.wg.Done()
	var w mergeScratch
	for job := range a.plane.jobs {
		if job.ack != nil {
			job.ack <- struct{}{}
			<-job.release
			continue
		}
		a.obs.mergeJobs.Inc()
		if err := a.flushEpoch(job.epoch, &w); err != nil {
			a.fail(err)
		}
	}
}

// flushEpoch merges and forwards one claimed epoch. The shard lock is held
// only for state extraction (accumulator word, contributor ids, slot
// removal); the modular reduction, frame encoding, upstream write and durable
// commit all run outside every lock so concurrent flushes overlap.
//
// Interleaving with lifecycle events is safe by construction: the covered
// union is snapshotted before extraction, and a leave that lands in between
// sweeps the leaver's report under the shard lock before we extract (the
// leave path then drains the plane before relaying the Leave upstream). An
// epoch straddling a membership change degrades to partial coverage, never to
// a wrong or double-counted SUM.
func (a *AggregatorNode) flushEpoch(t uint64, w *mergeScratch) error {
	if a.crashedA.Load() {
		return nil
	}
	a.mu.RLock()
	covers := a.covers // replaced wholesale, never mutated: header copy is safe
	a.mu.RUnlock()

	sh := a.table.shard(t)
	a.table.lock(sh)
	sl := sh.slots[t]
	if sl == nil {
		sh.mu.Unlock()
		return nil
	}
	var word uint256.Word512
	count := 0
	if sl.dirty {
		// Re-sends, rollbacks or sweeps desynced the lazy partial: rebuild
		// from the surviving reports. Still one deferred reduction.
		a.obs.mergeRebuilds.Inc()
		var acc uint256.Accumulator
		for _, rep := range sl.reports {
			if rep.psr != nil {
				acc.Add(rep.psr.C)
				count++
			}
		}
		word = acc.Word()
	} else {
		a.obs.mergeLazy.Inc()
		word = sl.acc.Word()
		count = sl.accN
	}
	contrib := w.contrib[:0]
	for _, rep := range sl.reports {
		if len(rep.failed) == 0 {
			contrib = append(contrib, rep.covers...)
		} else {
			w.minus = idsMinusInto(w.minus[:0], rep.covers, rep.failed)
			contrib = append(contrib, w.minus...)
		}
	}
	delete(sh.slots, t)
	sh.flushed.put(t, struct{}{})
	occupancy := len(sh.slots)
	sh.mu.Unlock()
	a.table.open.Add(-1)
	a.obs.shardOccupancy.Observe(float64(occupancy))

	// Map iteration order is arbitrary, so the concatenation is canonical only
	// by luck; sort + dedup in place when it is not (coverage snapshots are
	// disjoint in the steady state, overlapping only across steals).
	if !idsSorted(contrib) {
		contrib = normalizeIDsInPlace(contrib)
	}
	w.contrib = contrib
	w.failed = idsMinusInto(w.failed[:0], covers, contrib)
	failed := w.failed

	a.setLastFlushed(t)
	a.obs.flushes.Inc()
	a.obs.tracer.Mark(t, obs.StageFlush)
	var out Frame
	if count == 0 {
		a.obs.failureFlushes.Inc()
		a.obs.tracer.End(t, "failure")
		out = Frame{Type: TypeFailure, Epoch: t, Payload: core.EncodeContributors(failed)}
	} else {
		a.obs.tracer.End(t, "flushed")
		psr := core.PSR{C: a.field.Reduce512(word)}
		out = Frame{Type: TypePSR, Epoch: t, Payload: encodeReport(psr, failed)}
	}
	if err := a.upfw.Enqueue(out); err != nil {
		// Not journaled as committed: after a restart the contributions replay
		// and the epoch re-flushes — at-least-once delivery, which the
		// querier's committed window dedups into exactly-once.
		return err
	}
	a.commitFlush(prf.Epoch(t))
	return nil
}

// fail records the first fatal flush error and wakes the Run loop. Errors on
// a node already closing are expected teardown noise and are dropped.
func (a *AggregatorNode) fail(err error) {
	if a.closedA.Load() {
		return
	}
	a.failOnce.Do(func() {
		a.runErr = err
		close(a.failCh)
	})
}

// settleIrregular re-checks completeness of epoch t against the current
// membership while some slot is irregular (departed, coverage-stolen or
// fenced): the steady-state count compare in the ingest fast path cannot be
// trusted then. Runs the per-child scan under the read lock with the shard
// lock nested (the table's lock order), claiming and submitting when every
// still-expected child has reported. Allocation-free: the scan walks the
// slot's report map directly instead of materialising an expected set.
func (a *AggregatorNode) settleIrregular(t uint64) {
	claim := false
	a.mu.RLock()
	sh := a.table.shard(t)
	a.table.lock(sh)
	if sl := sh.slots[t]; sl != nil && !sl.claimed {
		claim = true
		for idx, c := range a.children {
			if !expectsChild(c, t) {
				continue
			}
			if _, ok := sl.reports[idx]; !ok {
				claim = false
				break
			}
		}
		if claim {
			sl.claimed = true
		}
	}
	sh.mu.Unlock()
	a.mu.RUnlock()
	if claim {
		a.plane.submit(t)
	}
}

// expectsChild reports whether slot c still owes a report for epoch t:
// departed and coverage-stolen slots owe nothing, and neither does a slot
// whose fence covers t (its contribution for t travelled through its previous
// parent, by the fence invariant). Callers hold a.mu (read or write).
func expectsChild(c *childState, t uint64) bool {
	return !c.departed && len(c.covers) > 0 && t > c.fence
}

// idsMinusInto computes a ∖ b for sorted canonical id lists into dst
// (typically a reused scratch sliced to [:0]), allocating only on growth.
func idsMinusInto(dst, a, b []int) []int {
	j := 0
	for _, id := range a {
		for j < len(b) && b[j] < id {
			j++
		}
		if j < len(b) && b[j] == id {
			continue
		}
		dst = append(dst, id)
	}
	return dst
}

// normalizeIDsInPlace sorts and dedups ids without allocating, the scratch
// counterpart of core.NormalizeIDs for flush-path buffers.
func normalizeIDsInPlace(ids []int) []int {
	sortInts(ids)
	out := ids[:0]
	for i, id := range ids {
		if i > 0 && id == ids[i-1] {
			continue
		}
		out = append(out, id)
	}
	return out
}

// sortInts is an allocation-free insertion/shell sort for flush-path id
// buffers — contributor lists are short and nearly sorted (per-report runs),
// where shell sort beats the generic sort's overhead and never allocates.
func sortInts(a []int) {
	for gap := len(a) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(a); i++ {
			v := a[i]
			j := i
			for ; j >= gap && a[j-gap] > v; j -= gap {
				a[j] = a[j-gap]
			}
			a[j] = v
		}
	}
}

// claimDeadlines claims and submits every unclaimed slot whose flush deadline
// has passed. Run-loop ticker path; holds no locks across submits.
func (a *AggregatorNode) claimDeadlines(now time.Time) {
	for _, t := range a.table.claimExpired(now) {
		a.plane.submit(t)
	}
}
