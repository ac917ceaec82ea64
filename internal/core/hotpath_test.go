package core

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/sies/sies/internal/prf"
	"github.com/sies/sies/internal/race"
	"github.com/sies/sies/internal/uint256"
)

// randomPSRs draws n field elements as PSRs, biased toward the top of the
// field so the lazy accumulator exercises its carry chain.
func randomPSRs(t testing.TB, f *uint256.Field, n int, seed int64) []PSR {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	p := f.Modulus()
	psrs := make([]PSR, n)
	for i := range psrs {
		var x uint256.Int
		if r.Intn(4) == 0 {
			// p − small: maximal carries when summed.
			d := uint256.Int{uint64(r.Intn(8)) + 1}
			x = f.Sub(p, f.Reduce(d))
		} else {
			for j := range x {
				x[j] = r.Uint64()
			}
			x = f.Reduce(x)
		}
		psrs[i] = PSR{C: x}
	}
	return psrs
}

// The variadic Merge, the streaming MergeState, and the reduce-per-step
// MergeInto must agree on every input: lazy reduction commutes with the
// modular sum.
func TestMergePathsAgree(t *testing.T) {
	q, _, err := Setup(1)
	if err != nil {
		t.Fatal(err)
	}
	agg := NewAggregator(q.Params().Field())
	for _, n := range []int{0, 1, 2, 3, 64, 257, 1024} {
		psrs := randomPSRs(t, q.Params().Field(), n, int64(1000+n))

		var seq PSR
		for _, p := range psrs {
			seq = agg.MergeInto(seq, p)
		}

		lazy := agg.Merge(psrs...)
		if lazy != seq {
			t.Fatalf("n=%d: Merge %v != sequential %v", n, lazy.C, seq.C)
		}

		st := agg.NewMerge()
		for _, p := range psrs {
			st.Add(p)
		}
		if st.Count() != n {
			t.Fatalf("n=%d: Count = %d", n, st.Count())
		}
		if got := st.Final(); got != seq {
			t.Fatalf("n=%d: MergeState %v != sequential %v", n, got.C, seq.C)
		}
	}
}

// The aggregator merge of preallocated PSRs must not allocate: it is the
// per-epoch inner loop of every in-network node.
func TestMergeAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gates are unreliable under the race detector")
	}
	q, _, err := Setup(1)
	if err != nil {
		t.Fatal(err)
	}
	agg := NewAggregator(q.Params().Field())
	psrs := randomPSRs(t, q.Params().Field(), 1024, 7)

	var sink PSR
	if n := testing.AllocsPerRun(20, func() {
		sink = agg.Merge(psrs...)
	}); n != 0 {
		t.Fatalf("Merge(1024 PSRs): %.1f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		st := agg.NewMerge()
		for i := range psrs {
			st.Add(psrs[i])
		}
		sink = st.Final()
	}); n != 0 {
		t.Fatalf("MergeState over 1024 PSRs: %.1f allocs/op, want 0", n)
	}
	_ = sink
}

// Repeated encryptions within one epoch must reuse the cached EncryptState
// and allocate nothing after the first call warmed the epoch.
func TestSourceEncryptSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gates are unreliable under the race detector")
	}
	_, sources, err := Setup(1)
	if err != nil {
		t.Fatal(err)
	}
	s := sources[0]
	const epoch = prf.Epoch(42)
	if _, err := s.Encrypt(epoch, 1); err != nil { // warm the epoch cache
		t.Fatal(err)
	}
	var sink PSR
	if n := testing.AllocsPerRun(50, func() {
		psr, err := s.Encrypt(epoch, 4242)
		if err != nil {
			t.Fatal(err)
		}
		sink = psr
	}); n != 0 {
		t.Fatalf("same-epoch Encrypt: %.1f allocs/op, want 0", n)
	}
	_ = sink
}

// A full-set Schedule miss derives over the querier's read-only [0, N) id
// list, never a per-epoch copy of the N ids (8 KiB at N=1024). What it may
// allocate is fixed: the EpochState it returns, its cache entry (entry, done
// channel, LRU element) and the field inversion's scratch.
func TestScheduleMissAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gates are unreliable under the race detector")
	}
	q, _, err := Setup(1024)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSchedule(q, ScheduleConfig{Workers: 1, CacheSize: 1})
	epoch := prf.Epoch(1)
	if _, err := s.EpochState(epoch, nil); err != nil { // build the derivers
		t.Fatal(err)
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := testing.AllocsPerRun(runs, func() {
		epoch++
		if _, err := s.EpochState(epoch, nil); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	if n > 5 {
		t.Fatalf("full-set Schedule miss: %.0f allocs/op, want at most 5", n)
	}
	// AllocsPerRun makes one warm-up call beyond runs.
	if b := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); b > 1024 {
		t.Fatalf("full-set Schedule miss: %d B/op, want at most 1024", b)
	}
}
