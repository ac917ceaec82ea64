package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/sies/sies/internal/transport"
)

// resultTimeout is how long the generator waits for any answer before it
// declares every outstanding epoch lost. It is well above the aggregator's
// per-epoch timeout, after which even a missing child yields a (partial)
// answer.
const resultTimeout = 10 * time.Second

// window bounds the closed loop's epochs in flight (sent, not yet answered).
// It stays below the querier's Results buffer (64), so the querier never
// blocks on emit while the generator is busy writing.
const window = 32

var errLost = errors.New("epochs lost: no answer within the result timeout")

// tally counts every epoch the generator offered and how it ended. An epoch
// fails when it is lost, rejected, partial, answered twice or answered with
// a SUM other than the generator's.
type tally struct {
	Attempted int `json:"attempted"`
	Verified  int `json:"verified"`
	Lost      int `json:"lost"`
	Rejected  int `json:"rejected"`
	Partial   int `json:"partial"`
	Duplicate int `json:"duplicate"`
	Wrong     int `json:"wrong"`
}

func (t tally) failed() int { return t.Lost + t.Rejected + t.Partial + t.Duplicate + t.Wrong }

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Verified += o.Verified
	t.Lost += o.Lost
	t.Rejected += o.Rejected
	t.Partial += o.Partial
	t.Duplicate += o.Duplicate
	t.Wrong += o.Wrong
}

// answeredWrongly is true when the tree gave an answer that must never
// appear: a wrong SUM or a second answer for one epoch.
func (t tally) answeredWrongly() bool { return t.Wrong+t.Duplicate > 0 }

// epoch states in generator.state.
const (
	unsent uint8 = iota
	inFlight
	answered
	lost // declared lost; a late answer is checked but not counted again
)

// generator is the replay load generator for one tree: a single goroutine that
// writes pre-encoded frames to the child connections and reads verified
// results from the querier's Results channel, checking every answer.
type generator struct {
	st      *stream
	kids    []net.Conn
	results <-chan transport.EpochResult
	tally   *tally
	spans   *spanLog // where spans go now; nil while tracing is off
	log     *spanLog // every span of the run, kept until it ends

	state       []uint8  // per epoch
	pace        pacedRun // the latest paced window; its epochs' latency is timed
	epochSpan   []int    // traced: span id per epoch
	outstanding int
	lat         []float64     // paced phase: due → verified latency, ms
	writeWait   time.Duration // traced: time spent inside child writes
	timer       *time.Timer
}

// pacedRun is a paced window: epochs first … first+count-1, epoch first+k
// due at sched.due(k).
type pacedRun struct {
	first, count int
	sched        paceSchedule
}

// dueAt is epoch e's due time, and whether e belongs to the window.
func (p pacedRun) dueAt(e int) (time.Time, bool) {
	if e < p.first || e >= p.first+p.count {
		return time.Time{}, false
	}
	return p.sched.due(e - p.first), true
}

func newGenerator(st *stream, tl *tally) *generator {
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	return &generator{
		st: st, tally: tl,
		state: make([]uint8, st.epochs+1),
		timer: timer,
	}
}

// tracing turns span recording on or off. It is switched only between
// windows, when no epoch is in flight.
func (g *generator) tracing(on bool) {
	if on && g.log == nil {
		g.log = newSpanLog(4 * g.st.epochs)
		g.epochSpan = make([]int, g.st.epochs+1)
	}
	g.spans = nil
	if on {
		g.spans = g.log
	}
}

// send writes epoch e's frame to every child.
func (g *generator) send(e int) error {
	var sp int
	if g.spans != nil {
		sp = g.spans.begin("epoch", 0, uint64(e))
		g.epochSpan[e] = sp
	}
	for j, c := range g.kids {
		ws := 0
		if g.spans != nil {
			ws = g.spans.begin("gen.write", sp, uint64(e))
		}
		if _, err := c.Write(g.st.frame(j, e)); err != nil {
			return fmt.Errorf("writing epoch %d to child %d: %w", e, j, err)
		}
		if g.spans != nil {
			g.writeWait += g.spans.end(ws)
		}
	}
	g.state[e] = inFlight
	g.outstanding++
	g.tally.Attempted++
	return nil
}

// accept checks one result against the generator's expected SUM and
// reports whether it was a first, exact, full answer.
func (g *generator) accept(res transport.EpochResult, at time.Time) bool {
	e := int(res.Epoch)
	if e >= 1 && e < len(g.state) && g.state[e] == lost {
		// Already failed as lost; it still must not carry a wrong SUM.
		g.state[e] = answered
		if res.Err == nil && !res.Partial && res.Sum != g.st.sums[e] {
			g.tally.Wrong++
		}
		return false
	}
	if e < 1 || e >= len(g.state) || g.state[e] != inFlight {
		g.tally.Duplicate++
		return false
	}
	g.state[e] = answered
	g.outstanding--
	if g.spans != nil && g.epochSpan[e] != 0 {
		g.spans.end(g.epochSpan[e])
	}
	switch {
	case res.Err != nil:
		g.tally.Rejected++
	case res.Partial:
		g.tally.Partial++
	case res.Sum != g.st.sums[e]:
		g.tally.Wrong++
	default:
		g.tally.Verified++
		if due, ok := g.pace.dueAt(e); ok {
			g.lat = append(g.lat, float64(at.Sub(due).Nanoseconds())/1e6)
		}
		return true
	}
	return false
}

// wait returns the next result, or false when none arrives within timeout.
func (g *generator) wait(timeout time.Duration) (transport.EpochResult, bool) {
	g.timer.Reset(timeout)
	select {
	case res, ok := <-g.results:
		// go.mod's go 1.23 gives synchronous timer channels: once Stop
		// returns, no tick of this arming can arrive, so the next wait cannot
		// read a stale one as a timeout. Under the older asynchronous timers
		// a tick could land just after Stop and a non-blocking drain, and
		// lose the whole window in flight.
		g.timer.Stop()
		return res, ok
	case <-g.timer.C:
		return transport.EpochResult{}, false
	}
}

// attach points the generator at a freshly built tree and forgets the previous
// tree's epochs; the set-up repetitions reuse one generator so its buffers are
// not allocated inside the timed set-up.
func (g *generator) attach(t *tree) {
	g.kids, g.results = t.kids, t.qn.Results
	clear(g.state)
	g.pace = pacedRun{}
	g.outstanding = 0
}

// loseOutstanding counts every epoch still in flight as lost.
func (g *generator) loseOutstanding() error {
	var epochs []int
	for e, s := range g.state {
		if s == inFlight {
			g.state[e] = lost
			g.tally.Lost++
			epochs = append(epochs, e)
		}
	}
	g.outstanding = 0
	return fmt.Errorf("%w: epochs %v", errLost, epochs)
}

// roundTrip sends one epoch and waits for its answer: the set-up probe.
func (g *generator) roundTrip(e int) error {
	if err := g.send(e); err != nil {
		return err
	}
	for g.outstanding > 0 {
		res, ok := g.wait(resultTimeout)
		if !ok {
			return g.loseOutstanding()
		}
		g.accept(res, time.Now())
	}
	return nil
}

// rate is a closed-loop window's throughput.
type rate struct {
	eps   float64 // exact answers per second of the time the host let the machine run
	wall  float64 // exact answers per wall-clock second
	steal float64 // share of the machine's CPU time the hypervisor gave other guests
}

// windowRate turns got exact answers over the timed span into a rate. The
// hypervisor's steal over the whole window, as a share of the machine's CPU
// time, is taken off the span: on a host shared with other guests, eps is
// then the tree's rate on the CPU time it was given, and a neighbour's load
// moves only the wall-clock rate.
func windowRate(got int, span, window, steal time.Duration, cpus int) rate {
	r := rate{wall: float64(got) / span.Seconds()}
	if cpus > 0 {
		r.steal = min(0.9, steal.Seconds()/(window.Seconds()*float64(cpus)))
	}
	r.eps = r.wall / (1 - r.steal)
	return r
}

// saturate is the closed loop: keep window epochs in flight from next
// until dur has passed or epoch last is sent, then drain. It returns the
// rate of exact answers received inside the timed span and the next unsent
// epoch. A tree that answers the window's whole budget before dur is up is
// timed to its last exact answer, so the rate is not capped by the budget.
func (g *generator) saturate(next, last int, dur time.Duration) (rate, int, error) {
	steal0, cpus := stolen()
	start := time.Now()
	stop := start.Add(dur)
	end := stop
	got := 0
	for {
		for g.outstanding < window && next <= last && time.Now().Before(stop) {
			if err := g.send(next); err != nil {
				return rate{}, next, err
			}
			next++
		}
		if g.outstanding == 0 {
			break
		}
		res, ok := g.wait(resultTimeout)
		if !ok {
			return rate{}, next, g.loseOutstanding()
		}
		at := time.Now()
		if g.accept(res, at) && at.Before(stop) {
			got++
			if next > last {
				end = at // budget used up early: rate over the span it covered
			}
		}
	}
	steal1, _ := stolen()
	return windowRate(got, end.Sub(start), time.Since(start), steal1-steal0, cpus), next, nil
}

// paced is the open loop: count epochs from next, epoch k due at
// start + k/rate. An epoch that falls behind schedule is sent at once, and
// its latency still runs from its due time. It returns the largest
// lateness of any send.
func (g *generator) paced(next, count int, rate float64) (time.Duration, error) {
	if next+count-1 > g.st.epochs {
		return 0, fmt.Errorf("paced phase needs epochs %d..%d, stream has %d", next, next+count-1, g.st.epochs)
	}
	sched := paceSchedule{start: time.Now().Add(time.Millisecond), rate: rate}
	g.pace = pacedRun{first: next, count: count, sched: sched}
	var maxLate time.Duration
	for k := 0; k < count || g.outstanding > 0; {
		if k < count {
			due := sched.due(k)
			if now := time.Now(); !now.Before(due) {
				if err := g.send(next + k); err != nil {
					return maxLate, err
				}
				maxLate = max(maxLate, sched.lateness(k, now))
				k++
				continue
			}
			if res, ok := g.wait(time.Until(due)); ok {
				g.accept(res, time.Now())
			}
			continue
		}
		res, ok := g.wait(resultTimeout)
		if !ok {
			return maxLate, g.loseOutstanding()
		}
		g.accept(res, time.Now())
	}
	return maxLate, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// userHZ is the unit of /proc/stat's times: USER_HZ, 100 on Linux.
const userHZ = 100

// stolen returns the CPU time the hypervisor gave other guests while this
// machine's CPUs were runnable, summed over them (the steal column of
// /proc/stat), and the number of CPUs. It reads 0 on a machine that is not
// a guest, and 0 CPUs when /proc/stat cannot be read.
func stolen() (time.Duration, int) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	var steal time.Duration
	cpus := 0
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) < 9 || !strings.HasPrefix(f[0], "cpu"):
		case f[0] == "cpu":
			ticks, err := strconv.ParseInt(f[8], 10, 64)
			if err != nil {
				return 0, 0
			}
			steal = time.Duration(ticks) * time.Second / userHZ
		default:
			cpus++
		}
	}
	return steal, cpus
}

// anonRSS is the process's resident anonymous memory in bytes (RssAnon in
// /proc/self/status): the Go heap, stacks and runtime, but not file-backed
// pages.
func anonRSS() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "RssAnon:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("/proc/self/status has no RssAnon line")
}

// footprint measures the resident memory the live tree holds: the rise in
// the process's resident anonymous memory from before the first set-up to
// the moment the tree has answered a fixed number of epochs. Each reading is
// the least of three, each after a GC that returns all free heap to the OS,
// so it holds live data only: how far the heap's sawtooth had climbed does
// not enter, nor does a background allocation (the querier's prefetch of
// the next epoch) that lands between a GC and its reading.
type footprint struct {
	base, at int64
	done     bool
	err      error
}

func newFootprint() *footprint {
	base, err := settledRSS()
	return &footprint{base: base, err: err}
}

// measure takes the second reading.
func (f *footprint) measure() {
	f.at, f.err = settledRSS()
	f.done = true
}

// settledRSS is the least of three anonRSS readings, each after
// debug.FreeOSMemory.
func settledRSS() (int64, error) {
	var least int64
	for i := 0; i < 3; i++ {
		debug.FreeOSMemory()
		v, err := anonRSS()
		if err != nil {
			return 0, err
		}
		if i == 0 || v < least {
			least = v
		}
	}
	return least, nil
}

// mb is the rise in MiB.
func (f *footprint) mb() float64 { return float64(f.at-f.base) / (1 << 20) }

// span is one timed interval the benchmark recorded around a call into a
// layer. Spans of one epoch share its number; Parent links a write to the
// epoch that caused it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Epoch  uint64 `json:"epoch,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. It is used from one
// goroutine at a time.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog(capacity int) *spanLog {
	return &spanLog{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its id.
func (l *spanLog) begin(name string, parent int, epoch uint64) int {
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Parent: parent, Epoch: epoch, Name: name,
		Start: time.Since(l.t0).Nanoseconds(),
	})
	return len(l.spans)
}

// end closes span id and returns its duration.
func (l *spanLog) end(id int) time.Duration {
	s := &l.spans[id-1]
	s.End = time.Since(l.t0).Nanoseconds()
	return time.Duration(s.End - s.Start)
}
