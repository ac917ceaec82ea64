package transport

import (
	"github.com/sies/sies/internal/obs"
)

// Metric name catalogue for the transport nodes. Every series is registered
// on the owning node's obs.Registry; DESIGN.md §13 documents the full set.
// Counters stay uint64 end-to-end — no int truncation, no 32-bit wrap.
const (
	mEpochsServed    = "sies_epochs_served_total"
	mEpochsFull      = "sies_epochs_full_total"
	mEpochsPartial   = "sies_epochs_partial_total"
	mEpochsEmpty     = "sies_epochs_empty_total"
	mEpochsRejected  = "sies_epochs_rejected_total"
	mEpochsRecovered = "sies_epochs_recovered_total"
	mRootReconnects  = "sies_root_reconnects_total"
	mEvalSeconds     = "sies_epoch_eval_seconds"

	mPipeJobs          = "sies_pipe_jobs_total"
	mPipeIngestDepth   = "sies_pipe_ingest_depth"
	mPipeAckBatchSizes = "sies_pipe_ack_batch_frames"
)

// batchSizeBuckets grades coalesced-batch sizes in frames.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// querierObs is the querier's observability bundle: the registry every
// subsystem counter is exposed through, the epoch-lifecycle tracer, and the
// atomic counters behind Health(). Health is a thin view over these — the
// per-field locks of the old struct-snapshot design are gone.
type querierObs struct {
	reg    *obs.Registry
	tracer *obs.Tracer

	served         *obs.Counter // full + partial (verified epochs)
	full           *obs.Counter
	partial        *obs.Counter
	empty          *obs.Counter
	rejected       *obs.Counter
	recovered      *obs.Counter // served via forensic localization + re-query
	rootReconnects *obs.Counter
	fenceRejects   *obs.Counter // uncommitted frames dropped at or below the root fence
	evalSeconds    *obs.Histogram

	// Serve-pipeline stage instrumentation.
	pipeJobs           *obs.Counter   // frames entering the decode/verify stage
	pipeIngestDepth    *obs.Gauge     // jobs queued between ingest and workers
	pipeAckBatchFrames *obs.Histogram // result acks coalesced per vectored write
}

// newQuerierObs builds the bundle on reg (nil → a private registry).
func newQuerierObs(reg *obs.Registry, traceCap int) *querierObs {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &querierObs{
		reg:            reg,
		tracer:         obs.NewTracer(traceCap),
		served:         reg.Counter(mEpochsServed, "epochs evaluated and verified (full or partial)"),
		full:           reg.Counter(mEpochsFull, "epochs with every source contributing"),
		partial:        reg.Counter(mEpochsPartial, "epochs verified over a strict subset"),
		empty:          reg.Counter(mEpochsEmpty, "epochs in which no source contributed"),
		rejected:       reg.Counter(mEpochsRejected, "epochs failing integrity or decode"),
		recovered:      reg.Counter(mEpochsRecovered, "rejected epochs served after forensic recovery"),
		rootReconnects: reg.Counter(mRootReconnects, "times the root aggregator re-attached"),
		fenceRejects:   reg.Counter("sies_querier_fence_rejects_total", "uncommitted frames dropped at or below the root's fence epoch"),
		evalSeconds:    reg.Histogram(mEvalSeconds, "per-epoch end-to-end evaluation latency", obs.DurationBuckets),

		pipeJobs:           reg.Counter(mPipeJobs, "frames handed to the pipelined decode/verify stage"),
		pipeIngestDepth:    reg.Gauge(mPipeIngestDepth, "frames queued between pipeline ingest and workers"),
		pipeAckBatchFrames: reg.Histogram(mPipeAckBatchSizes, "result acks coalesced per vectored write", batchSizeBuckets),
	}
}

// bind registers the scrape-time views over the node's other subsystems:
// key schedule, forensics, durability and transport internals. Called once
// from the constructor, after the subsystems exist.
func (o *querierObs) bind(qn *QuerierNode) {
	reg := o.reg
	sched := qn.sched
	reg.CounterFunc("sies_schedule_derivations_total", "per-source key derivations performed",
		func() uint64 { return sched.Stats().Derivations })
	reg.CounterFunc("sies_schedule_cache_hits_total", "epoch-state requests served from the cache",
		func() uint64 { return sched.Stats().Hits })
	reg.CounterFunc("sies_schedule_cache_misses_total", "epoch-state requests that had to derive",
		func() uint64 { return sched.Stats().Misses })
	reg.CounterFunc("sies_schedule_prefetches_total", "background derivations started",
		func() uint64 { return sched.Stats().Prefetches })
	reg.CounterFunc("sies_schedule_prefetch_wins_total", "requests answered by a prefetched entry",
		func() uint64 { return sched.Stats().PrefetchWins })
	reg.CounterFunc("sies_schedule_evaluations_total", "PSRs evaluated through the schedule",
		func() uint64 { return sched.Stats().Evaluations })
	reg.CounterFunc("sies_schedule_eval_nanoseconds_total", "cumulative evaluation latency in nanoseconds",
		func() uint64 { return uint64(sched.Stats().EvalTime.Nanoseconds()) })

	reg.CounterFunc("sies_forensics_localizations_total", "group-testing procedures run",
		func() uint64 { return uint64(qn.ForensicsStats().Localizations) })
	reg.CounterFunc("sies_forensics_probes_total", "subset re-queries across all localizations",
		func() uint64 { return uint64(qn.ForensicsStats().ProbesIssued) })
	reg.CounterFunc("sies_forensics_probe_rounds_total", "descent rounds across all localizations",
		func() uint64 { return uint64(qn.ForensicsStats().ProbeRounds) })
	reg.CounterFunc("sies_forensics_fast_recoveries_total", "epochs recovered by the quarantine fast path",
		func() uint64 { return uint64(qn.ForensicsStats().FastRecoveries) })
	reg.CounterFunc("sies_forensics_recovered_total", "rejected epochs served after localization",
		func() uint64 { return uint64(qn.ForensicsStats().Recovered) })
	reg.CounterFunc("sies_forensics_lost_total", "rejected epochs that stayed lost",
		func() uint64 { return uint64(qn.ForensicsStats().Lost) })
	reg.CounterFunc("sies_forensics_budget_aborts_total", "localizations cut off by the probe budget",
		func() uint64 { return uint64(qn.ForensicsStats().BudgetAborts) })
	reg.CounterFunc("sies_forensics_deadline_aborts_total", "localizations cut off by the deadline",
		func() uint64 { return uint64(qn.ForensicsStats().DeadlineAborts) })
	reg.GaugeFunc("sies_quarantine_suspects", "routes currently under suspicion",
		func() float64 { return float64(qn.ForensicsStats().QuarantineNow.Suspects) })
	reg.GaugeFunc("sies_quarantine_confirmed", "routes currently confirmed and excluded",
		func() float64 { return float64(qn.ForensicsStats().QuarantineNow.Confirmed) })
	reg.GaugeFunc("sies_quarantine_probation", "routes currently on probation",
		func() float64 { return float64(qn.ForensicsStats().QuarantineNow.Probation) })

	bindDurability(reg, "sies_durability", func() DurabilityStats { return qn.DurabilityStats() })
	if qn.state != nil {
		j := qn.state.store.Journal()
		reg.CounterFunc("sies_wal_syncs_total", "journal fsyncs issued (inline and group-commit rounds)",
			func() uint64 { return uint64(j.Stats().Syncs) })
		reg.CounterFunc("sies_wal_shared_syncs_total", "commits made durable by a group-commit fsync another worker led",
			func() uint64 { return uint64(j.Stats().SharedSyncs) })
	}

	reg.GaugeFunc("sies_missed_sources", "sources with at least one missed epoch on record",
		func() float64 {
			qn.mu.Lock()
			defer qn.mu.Unlock()
			return float64(qn.missed.len())
		})
	reg.GaugeFunc("sies_results_pending", "epoch results waiting on the Results channel",
		func() float64 { return float64(len(qn.Results)) })
	reg.GaugeFunc("sies_last_eval_epoch", "highest epoch evaluated so far",
		func() float64 {
			qn.mu.Lock()
			defer qn.mu.Unlock()
			return float64(qn.lastEval)
		})
}

// bindDurability registers the durability counter family under prefix.
func bindDurability(reg *obs.Registry, prefix string, stats func() DurabilityStats) {
	reg.GaugeFunc(prefix+"_enabled", "1 when a durable state directory is configured",
		func() float64 {
			if stats().Enabled {
				return 1
			}
			return 0
		})
	reg.CounterFunc(prefix+"_commits_total", "commit records appended this run",
		func() uint64 { return stats().Commits })
	reg.CounterFunc(prefix+"_checkpoints_total", "snapshot checkpoints written this run",
		func() uint64 { return stats().Checkpoints })
	reg.CounterFunc(prefix+"_journal_errors_total", "durable writes that failed (durability degraded)",
		func() uint64 { return stats().JournalErrors })
	reg.CounterFunc(prefix+"_dedup_hits_total", "frames for already-committed epochs dropped",
		func() uint64 { return stats().DedupHits })
	reg.GaugeFunc(prefix+"_replayed_records", "journal records recovered at boot",
		func() float64 { return float64(stats().ReplayedRecords) })
	reg.GaugeFunc(prefix+"_replayed_frontier", "epoch frontier restored at boot",
		func() float64 { return float64(stats().ReplayedFromWAL) })
	reg.GaugeFunc(prefix+"_torn_bytes", "torn-tail bytes truncated at boot",
		func() float64 { return float64(stats().TornBytes) })
}

// aggObs is the aggregator's observability bundle.
type aggObs struct {
	reg    *obs.Registry
	tracer *obs.Tracer

	reports          *obs.Counter
	flushes          *obs.Counter
	failureFlushes   *obs.Counter
	lateDrops        *obs.Counter
	fenceDrops       *obs.Counter
	staleDrops       *obs.Counter
	steals           *obs.Counter
	memberForwards   *obs.Counter
	childDisconnects *obs.Counter
	childReconnects  *obs.Counter
	childrenGauge    *obs.Gauge
	lastFlushedEpoch *obs.Gauge

	// Sharded epoch table + merge plane instrumentation (DESIGN.md §16).
	shardContention *obs.Counter
	ingestRetries   *obs.Counter
	mergeJobs       *obs.Counter
	mergeLazy       *obs.Counter
	mergeRebuilds   *obs.Counter
	shardOccupancy  *obs.Histogram
}

// shardOccupancyBuckets grades open slots per shard at flush time.
var shardOccupancyBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64}

func newAggObs(reg *obs.Registry, traceCap int) *aggObs {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &aggObs{
		reg:              reg,
		tracer:           obs.NewTracer(traceCap),
		reports:          reg.Counter("sies_agg_reports_total", "child reports accepted into pending epochs"),
		flushes:          reg.Counter("sies_agg_flushes_total", "epochs merged and forwarded upstream"),
		failureFlushes:   reg.Counter("sies_agg_failure_flushes_total", "epochs forwarded with no contributing PSR"),
		lateDrops:        reg.Counter("sies_agg_late_drops_total", "reports dropped for already-flushed epochs"),
		fenceDrops:       reg.Counter("sies_agg_fence_drops_total", "reports dropped below a re-homed child's fence epoch"),
		staleDrops:       reg.Counter("sies_agg_stale_drops_total", "reports dropped from slots whose coverage was stolen or drained"),
		steals:           reg.Counter("sies_agg_steals_total", "coverage re-attributions from stale slots to re-homing children"),
		memberForwards:   reg.Counter("sies_agg_member_relays_total", "membership events sent or relayed upstream"),
		childDisconnects: reg.Counter("sies_agg_child_disconnects_total", "child links lost"),
		childReconnects:  reg.Counter("sies_agg_child_reconnects_total", "children matched back to their slot"),
		childrenGauge:    reg.Gauge("sies_agg_children", "live child slots attached to this aggregator"),
		lastFlushedEpoch: reg.Gauge("sies_agg_last_flushed_epoch", "highest epoch forwarded upstream"),
		shardContention:  reg.Counter("sies_agg_shard_contention_total", "epoch-shard lock acquisitions that found the lock held"),
		ingestRetries:    reg.Counter("sies_agg_ingest_retries_total", "optimistic ingests rolled back by the membership-generation fence"),
		mergeJobs:        reg.Counter("sies_agg_merge_jobs_total", "claimed epochs handed to the merge plane"),
		mergeLazy:        reg.Counter("sies_agg_merge_lazy_total", "flushes served from the ingest-time lazy partial"),
		mergeRebuilds:    reg.Counter("sies_agg_merge_rebuilds_total", "flushes that rebuilt the merge from retained reports"),
		shardOccupancy:   reg.Histogram("sies_agg_shard_occupancy", "open slots left in a shard after a flush", shardOccupancyBuckets),
	}
}

// bind registers the scrape-time views over the aggregator's subsystems.
func (o *aggObs) bind(a *AggregatorNode) {
	o.reg.CounterFunc("sies_agg_upstream_reconnects_total", "times the upstream link was re-established",
		func() uint64 { return uint64(a.UpstreamReconnects()) })
	o.reg.CounterFunc("sies_agg_upstream_failovers_total", "escalations to the next candidate parent address",
		func() uint64 { return uint64(a.UpstreamFailovers()) })
	bindDurability(o.reg, "sies_agg_durability", func() DurabilityStats { return a.DurabilityStats() })
	o.reg.GaugeFunc("sies_agg_shards", "epoch-table stripe count",
		func() float64 { return float64(a.table.size()) })
	o.reg.GaugeFunc("sies_agg_merge_workers", "merge-plane worker count",
		func() float64 { return float64(a.plane.workers) })
	o.reg.GaugeFunc("sies_agg_shard_open_epochs", "in-flight epoch slots across all shards",
		func() float64 { return float64(a.table.open.Load()) })
	o.reg.GaugeFunc("sies_agg_merge_queue_depth", "claimed epochs queued for the merge workers",
		func() float64 { return float64(len(a.plane.jobs)) })
	bindFrameWriter(o.reg, "sies_agg_upstream", a.upfw)
}

// bindFrameWriter registers a coalescing writer's counters under prefix.
func bindFrameWriter(reg *obs.Registry, prefix string, fw *FrameWriter) {
	reg.CounterFunc(prefix+"_batches_total", "coalesced batches written to the link",
		func() uint64 { return fw.Stats().Flushes })
	reg.CounterFunc(prefix+"_frames_total", "frames written through the coalescing writer",
		func() uint64 { return fw.Stats().Frames })
	reg.CounterFunc(prefix+"_bytes_total", "encoded bytes written through the coalescing writer",
		func() uint64 { return fw.Stats().Bytes })
	reg.GaugeFunc(prefix+"_queue_depth", "full batches awaiting the flusher",
		func() float64 { return float64(fw.Stats().QueueDepth) })
}

// sourceObs is the source's observability bundle.
type sourceObs struct {
	reg     *obs.Registry
	reports *obs.Counter
	skipped *obs.Counter
}

func newSourceObs(reg *obs.Registry) *sourceObs {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &sourceObs{
		reg:     reg,
		reports: reg.Counter("sies_source_reports_total", "PSRs encrypted and handed to the parent link"),
		skipped: reg.Counter("sies_source_skipped_total", "reports skipped at or below the parent's resync epoch"),
	}
}

func (o *sourceObs) bind(s *SourceNode) {
	o.reg.CounterFunc("sies_source_reconnects_total", "times the parent link was re-established",
		func() uint64 { return uint64(s.Reconnects()) })
	o.reg.CounterFunc("sies_source_failovers_total", "escalations to the next candidate parent address",
		func() uint64 { return uint64(s.Failovers()) })
	bindFrameWriter(o.reg, "sies_source", s.fw)
}
