// Pipelined querier ingest: the querier's one serve path. One goroutine
// reads frames off the root connection (recycling a single payload buffer),
// worker goroutines decode and verify epochs concurrently, and commits go
// through the journal's group-commit path — the append happens under qn.mu,
// the fsync is shared across whatever set of workers is committing at that
// moment. Result acks coalesce through a FrameWriter into vectored writes on
// the same connection.
//
// The consistency contract: a commit is on stable storage before its result
// is emitted or acked (fsync-before-emit, DESIGN.md §12), an epoch is emitted
// at most once (the committed window plus record's concurrent-duplicate
// guard), and a crashed node emits nothing. Epochs may verify, commit and
// emit out of epoch order; consumers of Results key them by epoch.
package transport

import (
	"bufio"
	"encoding/binary"
	"net"
	"runtime"
	"sync"
	"time"

	"github.com/sies/sies/internal/core"
	"github.com/sies/sies/internal/obs"
	"github.com/sies/sies/internal/prf"
)

const (
	// maxPipelineWorkers caps the decode/verify goroutines; a node runs
	// min(maxPipelineWorkers, GOMAXPROCS). One worker still pipelines: epoch
	// t+1 decodes while epoch t's fsync is in flight on the journal.
	maxPipelineWorkers = 4
	// pipelineDepth bounds decoded-but-unclaimed frames between the ingest
	// reader and the workers — backpressure against a root that bursts
	// faster than verification drains.
	pipelineDepth = 128
)

// pipeJob is one frame in flight between the ingest reader and a worker. The
// payload is copied out of the FrameReader's recycled buffer; jobs themselves
// recycle through a pool so steady-state ingest allocates nothing.
type pipeJob struct {
	typ     byte
	epoch   uint64
	payload []byte
}

var pipeJobPool = sync.Pool{New: func() any { return new(pipeJob) }}

// servePipelined handles one root connection until it closes. The caller
// (serve) has already completed the hello handshake.
func (qn *QuerierNode) servePipelined(conn net.Conn) error {
	ackW := NewFrameWriter(FrameWriterConfig{
		Sink: &ConnSink{W: conn},
		OnFlush: func(frames, _ int) {
			qn.obs.pipeAckBatchFrames.Observe(float64(frames))
		},
	})

	jobs := make(chan *pipeJob, pipelineDepth)
	var wg sync.WaitGroup
	// inflight counts jobs handed to the workers and not yet recorded.
	// Membership changes wait for it: a leave or join moves the departed set
	// that verification subtracts, so epochs ahead of it in the stream must
	// verify under the old set.
	var inflight sync.WaitGroup
	for i := 0; i < min(maxPipelineWorkers, runtime.GOMAXPROCS(0)); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qn.pipeWorker(jobs, ackW, &inflight)
		}()
	}

	// Buffered reads drain a whole coalesced batch from the root in one
	// syscall; every retained byte is copied below, so buffer reuse is safe.
	fr := NewFrameReader(bufio.NewReader(conn))
	for {
		f, err := fr.Read()
		if err != nil {
			break // root closed or crashed: drain the pipeline, await redial
		}
		// Committed epochs re-ack straight from the stored result without
		// occupying a worker — the root re-sending after a crash on either
		// side must not trigger re-evaluation.
		if ack, committed := qn.committedAck(prf.Epoch(f.Epoch)); committed {
			if f.Type == TypePSR {
				qn.enqueueAck(ackW, f.Epoch, ack)
			}
			continue
		}
		switch f.Type {
		case TypeHello:
			// Mid-stream coverage refresh from a root whose subtree re-homed;
			// it may raise the fence.
			qn.noteRootFence(f.Epoch)
			continue
		case TypeMember:
			if ev, err := decodeMember(f.Payload, qn.q.Params().N()); err == nil {
				inflight.Wait()
				qn.tree.apply(ev)
			}
			continue
		case TypeLeave:
			if ids, err := core.DecodeContributorsBounded(f.Payload, qn.q.Params().N()); err == nil {
				inflight.Wait()
				qn.tree.apply(memberEvent{kind: memberLeave, label: conn.RemoteAddr().String(), ids: ids})
			}
			continue
		case TypePSR, TypeFailure:
			// Uncommitted data at or below the fence is a zombie link's late
			// flush of a re-homed subtree: dropped, never evaluated.
			if qn.fencedEpoch(f.Epoch) {
				qn.obs.fenceRejects.Inc()
				continue
			}
		default:
			continue // result frames are ignored mid-stream
		}
		job := pipeJobPool.Get().(*pipeJob)
		job.typ, job.epoch = f.Type, f.Epoch
		job.payload = append(job.payload[:0], f.Payload...)
		qn.obs.pipeJobs.Inc()
		inflight.Add(1)
		jobs <- job
		qn.obs.pipeIngestDepth.Set(int64(len(jobs)))
	}
	close(jobs)
	wg.Wait()
	qn.obs.pipeIngestDepth.Set(0)
	// Flush the last acks before serve closes the connection; after a sticky
	// error (root gone first) there is nothing left to deliver.
	ackW.Close()
	return nil
}

// pipeWorker decodes, verifies and records jobs until the channel closes;
// record supplies the cross-worker commit coordination.
func (qn *QuerierNode) pipeWorker(jobs <-chan *pipeJob, ackW *FrameWriter, inflight *sync.WaitGroup) {
	n := qn.q.Params().N()
	field := qn.q.Params().Field()
	for job := range jobs {
		t := prf.Epoch(job.epoch)
		var out EpochResult
		ackable := true
		switch job.typ {
		case TypePSR:
			qn.obs.tracer.Begin(job.epoch)
			qn.obs.tracer.Mark(job.epoch, obs.StageReport)
			psr, failed, err := decodeReport(job.payload, field, n)
			if err != nil {
				out = EpochResult{Epoch: t, Err: err}
				ackable = false // decode garbage is recorded, never acked
				break
			}
			failed = qn.withDeparted(failed)
			var contributors []int // nil = all sources, the schedule's fast path
			if len(failed) > 0 {
				contributors = core.Subtract(n, failed)
			}
			start := time.Now()
			res, evalErr := qn.sched.Evaluate(t, psr, contributors)
			qn.obs.evalSeconds.Observe(time.Since(start).Seconds())
			out = EpochResult{Epoch: t, Failed: failed, Partial: len(failed) > 0, Err: evalErr}
			switch {
			case evalErr == nil:
				qn.obs.tracer.Mark(job.epoch, obs.StageVerify)
				out.Sum = res.Sum
				out.Contributors = res.N
				out.Coverage = float64(res.N) / float64(n)
				qn.forMu.Lock()
				qn.tickForensics()
				qn.forMu.Unlock()
			case qn.forensics != nil && integrityRejection(evalErr):
				qn.obs.tracer.Mark(job.epoch, obs.StageReject)
				qn.obs.tracer.Mark(job.epoch, obs.StageForensics)
				// Localization probes the live tree and mutates the quarantine
				// registry — inherently serial, so concurrent rejections queue.
				qn.forMu.Lock()
				out = qn.recover(t, failed, out)
				qn.forMu.Unlock()
			default:
				qn.obs.tracer.Mark(job.epoch, obs.StageReject)
			}
		case TypeFailure:
			qn.obs.tracer.Begin(job.epoch)
			qn.obs.tracer.Mark(job.epoch, obs.StageReport)
			failed, err := core.DecodeContributorsBounded(job.payload, n)
			if err != nil {
				out = EpochResult{Epoch: t, Err: err}
			} else {
				out = EpochResult{Epoch: t, Partial: true, Failed: failed, Err: ErrNoContributors}
			}
			ackable = false // failure frames are never acked
		}
		ack, ok := qn.record(out)
		if ok && ackable {
			qn.enqueueAck(ackW, job.epoch, ack)
		}
		pipeJobPool.Put(job)
		inflight.Done()
	}
}

// enqueueAck queues one result ack on the coalescing writer. Ack failures are
// tolerated: the root departed, evaluation continues, and re-sent epochs
// re-ack once it returns.
func (qn *QuerierNode) enqueueAck(ackW *FrameWriter, epoch uint64, ack ackInfo) {
	_ = ackW.EnqueueAppend(TypeResult, epoch, 9, func(dst []byte) {
		binary.BigEndian.PutUint64(dst, ack.sum)
		if ack.ok {
			dst[8] = 1
		} else {
			dst[8] = 0
		}
	})
}
