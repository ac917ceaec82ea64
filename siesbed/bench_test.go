package main

import (
	"bytes"
	"errors"
	"math"
	"net"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/sies/sies/internal/core"
	"github.com/sies/sies/internal/prf"
	"github.com/sies/sies/internal/transport"
)

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("quantile of one value = %v, want 7", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no values should be NaN")
	}
	if got := percentile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("percentile sorts its input: got %v, want 2", got)
	}
}

func TestSpread(t *testing.T) {
	// Quartiles 3.25 and 7.75 around a median of 5.5.
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(got-4.5/5.5) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want %v", got, 4.5/5.5)
	}
	if got := spread([]float64{3, 3, 3}); got != 0 {
		t.Errorf("spread of equal values = %v, want 0", got)
	}
}

func TestPaceSchedule(t *testing.T) {
	start := time.Unix(1000, 0)
	p := paceSchedule{start: start, rate: 4000}
	if got := p.due(0); !got.Equal(start) {
		t.Errorf("due(0) = %v, want the start", got)
	}
	if got := p.due(4000); !got.Equal(start.Add(time.Second)) {
		t.Errorf("due(rate) = %v, want one second after the start", got)
	}
	if got := p.due(3); !got.Equal(start.Add(750 * time.Microsecond)) {
		t.Errorf("due(3) = %v, want start+750µs", got)
	}
	if late := p.lateness(3, start.Add(700*time.Microsecond)); late != 0 {
		t.Errorf("an early send is %v late, want 0", late)
	}
	if late := p.lateness(3, start.Add(2*time.Millisecond)); late != 1250*time.Microsecond {
		t.Errorf("lateness = %v, want 1.25ms", late)
	}
}

func TestExpectedSum(t *testing.T) {
	ids := allIDs(1024)
	a, b := expectedSum(7, 3, ids), expectedSum(7, 3, ids)
	if a != b {
		t.Fatalf("expected sum is not deterministic: %d vs %d", a, b)
	}
	var manual uint64
	for _, id := range ids {
		r := reading(7, 3, id)
		if r >= maxReading {
			t.Fatalf("reading %d out of range", r)
		}
		manual += r
	}
	if manual != a {
		t.Errorf("expectedSum = %d, sum of readings = %d", a, manual)
	}
	if expectedSum(8, 3, ids) == a && expectedSum(8, 4, ids) == expectedSum(7, 4, ids) {
		t.Error("a different seed gives the same sums")
	}
	if a >= 1<<32 {
		t.Errorf("sum %d does not fit the 32-bit value field", a)
	}
}

// TestStreamAnswersExpectedSum checks the generator end to end: the merged
// child PSRs of a seeded stream, mapped from its cache file, verify at a
// querier provisioned from the same seed to exactly the expected SUM, and
// every frame carries its epoch's PSR.
func TestStreamAnswersExpectedSum(t *testing.T) {
	w := workload{name: "tiny", n: 6, c: 2}
	path := t.TempDir() + "/stream.bin"
	if err := generateStream(w, 42, 5, path); err != nil {
		t.Fatal(err)
	}
	st, err := mapStream(w, 42, 5, path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mapStream(w, 43, 5, path); err == nil {
		t.Error("the cache of seed 42 maps as seed 43's")
	}
	ring, err := prf.NewKeyRingFromKeys(st.global, st.keys)
	if err != nil {
		t.Fatal(err)
	}
	params, err := core.NewParams(w.n)
	if err != nil {
		t.Fatal(err)
	}
	q, err := core.NewQuerier(ring, params)
	if err != nil {
		t.Fatal(err)
	}
	merger := core.NewAggregator(st.field)
	for e := 1; e <= st.epochs; e++ {
		res, err := q.Evaluate(prf.Epoch(e), merger.Merge(st.childPSRs(e)...))
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if res.Sum != st.sums[e] || res.Sum != expectedSum(42, prf.Epoch(e), allIDs(w.n)) {
			t.Errorf("epoch %d: SUM %d, expected %d", e, res.Sum, st.sums[e])
		}
		for j := range st.covers {
			f, err := transport.ReadFrame(bytes.NewReader(st.frame(j, e)))
			if err != nil || f.Epoch != uint64(e) || !bytes.HasPrefix(f.Payload, st.psrs[j][(e-1)*core.PSRSize:e*core.PSRSize]) {
				t.Errorf("epoch %d child %d: frame does not carry its PSR (%v)", e, j, err)
			}
		}
	}
}

func TestGeneratorAccounting(t *testing.T) {
	st := &stream{epochs: 6, sums: []uint64{0, 10, 20, 30, 40, 50, 60}}
	var tl tally
	gen := newGenerator(st, &tl)
	for e := 1; e <= 5; e++ {
		gen.state[e] = inFlight
		gen.outstanding++
		tl.Attempted++
	}
	start := time.Now()
	gen.pace = pacedRun{first: 1, count: 1, sched: paceSchedule{start: start.Add(time.Millisecond), rate: 1000}}
	now := start.Add(2 * time.Millisecond)
	gen.accept(transport.EpochResult{Epoch: 1, Sum: 10}, now)                      // exact
	gen.accept(transport.EpochResult{Epoch: 1, Sum: 10}, now)                      // answered twice
	gen.accept(transport.EpochResult{Epoch: 2, Sum: 21}, now)                      // wrong SUM
	gen.accept(transport.EpochResult{Epoch: 3, Sum: 30, Partial: true}, now)       // partial
	gen.accept(transport.EpochResult{Epoch: 4, Err: errors.New("integrity")}, now) // rejected
	gen.accept(transport.EpochResult{Epoch: 6, Sum: 60}, now)                      // never sent
	if err := gen.loseOutstanding(); !errors.Is(err, errLost) {                    // epoch 5
		t.Fatalf("loseOutstanding = %v", err)
	}
	gen.accept(transport.EpochResult{Epoch: 5, Sum: 50}, now) // late but exact: already failed as lost
	gen.accept(transport.EpochResult{Epoch: 5, Sum: 50}, now) // then answered twice
	want := tally{Attempted: 5, Verified: 1, Lost: 1, Rejected: 1, Partial: 1, Duplicate: 3, Wrong: 1}
	if tl != want {
		t.Errorf("tally = %+v, want %+v", tl, want)
	}
	if !tl.answeredWrongly() || tl.failed() != 7 {
		t.Errorf("answeredWrongly=%v failed=%d", tl.answeredWrongly(), tl.failed())
	}
	if len(gen.lat) != 1 || math.Abs(gen.lat[0]-1) > 1e-6 {
		t.Errorf("paced latency = %v, want [1ms]", gen.lat)
	}
}

// TestManifestRoundTrip checks that the committed BENCHMARK.json is the
// one the benchmark's tables render and survives an encode/decode round
// trip unchanged, and that every end-to-end bound is one the schema allows.
func TestManifestRoundTrip(t *testing.T) {
	got, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want := buildManifest()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it with `bash siesbed/run.sh manifest`\n got %+v\nwant %+v", got, want)
	}
	data, err := encodeManifest(got)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/BENCHMARK.json"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := readManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, got) {
		t.Error("round trip changed the manifest")
	}
	for _, d := range got.EndToEnd {
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound must be in (0, 0.25]", d.Name)
		}
	}
}

// answerConn is a child connection whose tree answers every epoch exactly
// the moment the generator writes it.
type answerConn struct {
	net.Conn
	st      *stream
	epoch   int
	results chan transport.EpochResult
}

func (c *answerConn) Write(b []byte) (int, error) {
	c.epoch++
	c.results <- transport.EpochResult{Epoch: prf.Epoch(c.epoch), Sum: c.st.sums[c.epoch]}
	return len(b), nil
}

// TestSaturateOutrunsBudget checks that a tree faster than a window's
// budget is timed to its last answer: its rate is not capped at budget ÷
// window length.
func TestSaturateOutrunsBudget(t *testing.T) {
	const epochs, budget = 100, 50
	st := &stream{epochs: epochs, stride: 1, frames: [][]byte{make([]byte, epochs)}, sums: make([]uint64, epochs+1)}
	for e := range st.sums {
		st.sums[e] = uint64(7 * e)
	}
	var tl tally
	gen := newGenerator(st, &tl)
	results := make(chan transport.EpochResult, epochs)
	gen.kids = []net.Conn{&answerConn{st: st, results: results}}
	gen.results = results
	// A budget of 50 epochs over one second is 50 epochs/s at most if the
	// whole second were timed.
	rate, next, err := gen.saturate(1, budget, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if next != budget+1 || tl.Verified != budget || tl.failed() != 0 {
		t.Fatalf("next=%d tally=%+v", next, tl)
	}
	if rate.wall <= 10*budget {
		t.Errorf("rate = %.0f epochs/s: capped by the window's budget", rate.wall)
	}
}

// TestWaitLeavesNoStaleTick races results against the generator's reusable
// timer. When a result wins while the timer is firing, the timer's tick must
// not land in its channel after wait returns: the next wait would read it as
// a timeout and count every epoch in flight as lost.
func TestWaitLeavesNoStaleTick(t *testing.T) {
	results := make(chan transport.EpochResult, 1)
	gen := newGenerator(&stream{epochs: 1}, &tally{})
	gen.results = results
	const rounds = 100000
	stale := 0
	for i := 0; i < rounds; i++ {
		results <- transport.EpochResult{Epoch: 1}
		if _, ok := gen.wait(time.Duration(i%8) * time.Microsecond); !ok {
			<-results // the timer won; the result is still queued
			continue
		}
		// Give a tick that is on its way a few microseconds to land.
		for end := time.Now().Add(5 * time.Microsecond); time.Now().Before(end); {
		}
		select {
		case <-gen.timer.C:
			stale++
		default:
		}
	}
	if stale > 0 {
		t.Errorf("%d of %d waits left a stale tick in the timer's channel", stale, rounds)
	}
}

func TestCombineParts(t *testing.T) {
	w, err := lookupWorkload("frames-narrow")
	if err != nil {
		t.Fatal(err)
	}
	part := func(eps, cpu, setups []float64, rss, lag float64, tl tally) *result {
		r := newResult(w, 7, 20, false, true)
		r.Tally = tl
		r.Windows = map[string][]float64{"eps": eps, "cpu_ms_per_epoch": cpu, "setup_s": setups}
		for name, v := range map[string]float64{"rss_mb": rss, "gen.lag_ms": lag, "lat_p50_ms": 1, "lat_p90_ms": 2} {
			r.set(name, v)
		}
		return r
	}
	r := combine(w, 7, 20, true, []*result{
		part([]float64{10, 20}, []float64{1}, []float64{0.5, 0.1}, 3, 4, tally{Attempted: 5, Verified: 5}),
		part([]float64{30}, []float64{2, 3}, []float64{0.3}, 5, 1, tally{Attempted: 4, Verified: 3, Partial: 1}),
		part([]float64{40}, []float64{4}, []float64{0.2}, 4, 2, tally{Attempted: 1, Verified: 1}),
	})
	want := map[string]float64{"eps": 25, "cpu_ms_per_epoch": 2.5, "setup_s": 0.25, "rss_mb": 4, "gen.lag_ms": 4, "lat_p50_ms": 1}
	for name, v := range want {
		if got := r.Metrics[name].Value; math.Abs(got-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if r.Tally != (tally{Attempted: 10, Verified: 9, Partial: 1}) || !r.Correct || r.FailedRatio != 0.1 {
		t.Errorf("tally %+v correct=%v failed_ratio=%v", r.Tally, r.Correct, r.FailedRatio)
	}
}

func TestWindowRate(t *testing.T) {
	// 100 answers over a 1 s span of a 2 s window, on two CPUs of which the
	// hypervisor took 1 s: a quarter of the machine's time.
	r := windowRate(100, time.Second, 2*time.Second, time.Second, 2)
	if r.wall != 100 || r.steal != 0.25 || math.Abs(r.eps-100/0.75) > 1e-9 {
		t.Errorf("windowRate = %+v", r)
	}
	if r := windowRate(100, time.Second, time.Second, 0, 0); r.eps != 100 || r.steal != 0 {
		t.Errorf("windowRate without /proc/stat = %+v", r)
	}
}
