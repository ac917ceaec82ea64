// Benchmark harness: one benchmark family per table and figure of the
// paper's evaluation (§V–§VI). Run everything with
//
//	go test -bench=. -benchmem
//
// or a single experiment with e.g. -bench 'BenchmarkFigure4'. The companion
// command cmd/siesbench prints the same experiments as formatted tables with
// the paper's reference values side by side.
//
//	Table II    — BenchmarkTable2:  micro-cost constants
//	Table III   — analytical; regenerated by cmd/siesbench -table 3
//	             (BenchmarkTable3Inputs measures the live inputs it needs)
//	Figure 4    — BenchmarkFigure4: source cost vs domain
//	Figure 5    — BenchmarkFigure5: aggregator cost vs fanout
//	Figure 6(a) — BenchmarkFigure6a: querier cost vs N
//	Figure 6(b) — BenchmarkFigure6b: querier cost vs domain
//	Table V     — BenchmarkTable5:  bytes per network edge
package sies_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/sies/sies/internal/cmt"
	"github.com/sies/sies/internal/commitattest"
	"github.com/sies/sies/internal/core"
	"github.com/sies/sies/internal/network"
	"github.com/sies/sies/internal/prf"
	"github.com/sies/sies/internal/rsax"
	"github.com/sies/sies/internal/secoa"
	"github.com/sies/sies/internal/sketch"
	"github.com/sies/sies/internal/uint256"
	"github.com/sies/sies/internal/workload"
)

// benchRSA shares one 1024-bit RSA key (the paper's modulus size) across all
// benchmarks; generating it repeatedly would dominate setup time.
var (
	benchRSAOnce sync.Once
	benchRSAKey  *rsax.PublicKey
	benchRSAErr  error
)

func benchRSA(b *testing.B) *rsax.PublicKey {
	b.Helper()
	benchRSAOnce.Do(func() {
		benchRSAKey, benchRSAErr = rsax.GenerateKey(rsax.DefaultModulusBits, rsax.DefaultExponent)
	})
	if benchRSAErr != nil {
		b.Fatal(benchRSAErr)
	}
	return benchRSAKey
}

func secoaBenchParams(b *testing.B, n int, domainMax uint64) secoa.Params {
	b.Helper()
	return secoa.Params{Sketch: sketch.DefaultParams(n, domainMax), Key: benchRSA(b)}
}

// --- Table II: micro-cost constants -----------------------------------------

func BenchmarkTable2(b *testing.B) {
	key := make([]byte, prf.LongTermKeySize)

	b.Run("C_HM1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prf.HM1Epoch(key, prf.Epoch(i))
		}
	})
	b.Run("C_HM256", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prf.HM256Epoch(key, prf.Epoch(i))
		}
	})
	b.Run("C_A20", func(b *testing.B) {
		var x, y cmt.Ciphertext
		for i := range y {
			y[i] = byte(i)
		}
		for i := 0; i < b.N; i++ {
			x = cmt.Aggregate(x, y)
		}
	})
	b.Run("C_A32", func(b *testing.B) {
		f := uint256.NewDefaultField()
		x, _ := f.Rand()
		y, _ := f.Rand()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x = f.Add(x, y)
		}
	})
	b.Run("C_M32", func(b *testing.B) {
		f := uint256.NewDefaultField()
		x, _ := f.Rand()
		y, _ := f.RandNonZero()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x = f.Mul(x, y)
		}
	})
	b.Run("C_MI32", func(b *testing.B) {
		f := uint256.NewDefaultField()
		y, _ := f.RandNonZero()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.Inv(y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("C_M128", func(b *testing.B) {
		pk := benchRSA(b)
		x := pk.SeedFromBytes([]byte("x"))
		y := pk.SeedFromBytes([]byte("y"))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x = pk.Fold(x, y)
		}
	})
	b.Run("C_RSA", func(b *testing.B) {
		pk := benchRSA(b)
		m := pk.SeedFromBytes([]byte("m"))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			next, err := pk.Encrypt(m)
			if err != nil {
				b.Fatal(err)
			}
			m = next
		}
	})
	b.Run("C_sk", func(b *testing.B) {
		p := sketch.Params{J: 1, MaxLevel: 24}
		rng := rand.New(rand.NewSource(1))
		b.ResetTimer()
		// One op = one sketch insertion; Generate(v=b.N) performs exactly
		// b.N insertions for J=1.
		if _, err := sketch.Generate(p, uint64(b.N), rng); err != nil {
			b.Fatal(err)
		}
	})
}

// --- Table III inputs --------------------------------------------------------

// BenchmarkTable3Inputs measures the end-to-end per-party costs at the
// paper's default configuration (N=1024, F=4, D=[1800,5000]); siesbench
// compares them against the Equation 1–9 predictions.
func BenchmarkTable3Inputs(b *testing.B) {
	b.Run("SIES_source", func(b *testing.B) { benchSIESSource(b, workload.Scale100) })
	b.Run("CMT_source", func(b *testing.B) { benchCMTSource(b, workload.Scale100) })
	b.Run("SIES_aggregator", func(b *testing.B) { benchSIESAggregator(b, 4) })
	b.Run("CMT_aggregator", func(b *testing.B) { benchCMTAggregator(b, 4) })
	b.Run("SIES_querier", func(b *testing.B) { benchSIESQuerier(b, 1024) })
	b.Run("CMT_querier", func(b *testing.B) { benchCMTQuerier(b, 1024) })
}

// --- Figure 4: computational cost at the source vs domain --------------------

func benchSIESSource(b *testing.B, scale workload.Scale) {
	b.Helper()
	_, sources, err := core.Setup(1024)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	vals := workload.UniformReadings(64, scale, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sources[0].Encrypt(prf.Epoch(i), vals[i%len(vals)]); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCMTSource(b *testing.B, scale workload.Scale) {
	b.Helper()
	key := make([]byte, prf.LongTermKeySize)
	src := cmt.NewSource(0, key)
	rng := rand.New(rand.NewSource(1))
	vals := workload.UniformReadings(64, scale, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Encrypt(prf.Epoch(i), vals[i%len(vals)])
	}
}

func benchSECOASource(b *testing.B, scale workload.Scale) {
	b.Helper()
	lo, hi := scale.Domain()
	params := secoaBenchParams(b, 1024, hi)
	d, err := secoa.NewDeployment(1, params, 1)
	if err != nil {
		b.Fatal(err)
	}
	v := (lo + hi) / 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Sources[0].Produce(prf.Epoch(i), v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	for _, scale := range workload.PaperScales() {
		b.Run("SIES/"+scale.String(), func(b *testing.B) { benchSIESSource(b, scale) })
		b.Run("CMT/"+scale.String(), func(b *testing.B) { benchCMTSource(b, scale) })
		b.Run("SECOAS/"+scale.String(), func(b *testing.B) { benchSECOASource(b, scale) })
	}
}

// --- Figure 5: computational cost at the aggregator vs fanout ----------------

func benchSIESAggregator(b *testing.B, fanout int) {
	b.Helper()
	q, sources, err := core.Setup(fanout)
	if err != nil {
		b.Fatal(err)
	}
	agg := core.NewAggregator(q.Params().Field())
	psrs := make([]core.PSR, fanout)
	for i, s := range sources {
		if psrs[i], err = s.Encrypt(1, 3000); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.Merge(psrs...)
	}
}

func benchCMTAggregator(b *testing.B, fanout int) {
	b.Helper()
	cs := make([]cmt.Ciphertext, fanout)
	key := make([]byte, prf.LongTermKeySize)
	for i := range cs {
		key[0] = byte(i)
		cs[i] = cmt.NewSource(i, key).Encrypt(1, 3000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmt.Aggregate(cs...)
	}
}

func benchSECOAAggregator(b *testing.B, fanout int) {
	b.Helper()
	params := secoaBenchParams(b, 1024, 5000)
	d, err := secoa.NewDeployment(fanout, params, 1)
	if err != nil {
		b.Fatal(err)
	}
	agg, err := secoa.NewAggregator(params)
	if err != nil {
		b.Fatal(err)
	}
	msgs := make([]*secoa.Message, fanout)
	for i := 0; i < fanout; i++ {
		if msgs[i], err = d.Sources[i].ProduceFast(1, 3000); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agg.Merge(msgs...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	for _, fanout := range []int{2, 3, 4, 5, 6} {
		name := fmt.Sprintf("F%d", fanout)
		b.Run("SIES/"+name, func(b *testing.B) { benchSIESAggregator(b, fanout) })
		b.Run("CMT/"+name, func(b *testing.B) { benchCMTAggregator(b, fanout) })
		b.Run("SECOAS/"+name, func(b *testing.B) { benchSECOAAggregator(b, fanout) })
	}
}

// --- Figure 6(a): computational cost at the querier vs N ---------------------

func benchSIESQuerier(b *testing.B, n int) {
	b.Helper()
	q, sources, err := core.Setup(n)
	if err != nil {
		b.Fatal(err)
	}
	agg := core.NewAggregator(q.Params().Field())
	var final core.PSR
	for _, s := range sources {
		psr, err := s.Encrypt(1, 3000)
		if err != nil {
			b.Fatal(err)
		}
		final = agg.MergeInto(final, psr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Evaluate(1, final); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCMTQuerier(b *testing.B, n int) {
	b.Helper()
	keys := make([][]byte, n)
	var agg cmt.Ciphertext
	for i := range keys {
		keys[i] = make([]byte, prf.LongTermKeySize)
		keys[i][0], keys[i][1] = byte(i), byte(i>>8)
		agg = cmt.Aggregate(agg, cmt.NewSource(i, keys[i]).Encrypt(1, 3000))
	}
	q, err := cmt.NewQuerier(keys)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Decrypt(1, agg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSECOAQuerier(b *testing.B, n int, domainMax uint64) {
	b.Helper()
	params := secoaBenchParams(b, n, domainMax)
	d, err := secoa.NewDeployment(n, params, 1)
	if err != nil {
		b.Fatal(err)
	}
	// Synthesize a valid sink message: one reference-SEAL computation
	// instead of simulating n sources' Θ(J·v) work.
	msg, err := d.Querier.SynthesizeUniformSinkMessage(1, uint8(params.Sketch.MaxLevel-1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Querier.Verify(1, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6a(b *testing.B) {
	for _, n := range []int{64, 256, 1024, 4096, 16384} {
		name := fmt.Sprintf("N%d", n)
		b.Run("SIES/"+name, func(b *testing.B) { benchSIESQuerier(b, n) })
		b.Run("CMT/"+name, func(b *testing.B) { benchCMTQuerier(b, n) })
		if n <= 4096 || !testing.Short() {
			b.Run("SECOAS/"+name, func(b *testing.B) { benchSECOAQuerier(b, n, 5000) })
		}
	}
}

// --- Figure 6(b): computational cost at the querier vs domain ----------------

func BenchmarkFigure6b(b *testing.B) {
	for _, scale := range workload.PaperScales() {
		_, hi := scale.Domain()
		b.Run("SIES/"+scale.String(), func(b *testing.B) { benchSIESQuerier(b, 1024) })
		b.Run("CMT/"+scale.String(), func(b *testing.B) { benchCMTQuerier(b, 1024) })
		b.Run("SECOAS/"+scale.String(), func(b *testing.B) { benchSECOAQuerier(b, 1024, hi) })
	}
}

// --- Table V: communication cost per network edge -----------------------------

// BenchmarkTable5 runs one epoch per scheme over the N=256, F=4 tree and
// reports the observed bytes per edge class as custom metrics
// (SA-bytes/edge, AA-bytes/edge, AQ-bytes). The siesbench command prints the
// full Table V at N=1024 with the paper's reference values.
func BenchmarkTable5(b *testing.B) {
	const n, fanout = 256, 4
	run := func(b *testing.B, proto network.Protocol) {
		topo, err := network.CompleteTree(n, fanout)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := network.NewEngine(topo, proto)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		vals := workload.UniformReadings(n, workload.Scale100, rng)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.RunEpoch(prf.Epoch(i+1), vals); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := eng.Stats()
		b.ReportMetric(st.PerKind[network.EdgeSA].AvgBytes(), "SA-bytes/edge")
		b.ReportMetric(st.PerKind[network.EdgeAA].AvgBytes(), "AA-bytes/edge")
		b.ReportMetric(st.PerKind[network.EdgeAQ].AvgBytes(), "AQ-bytes")
	}
	b.Run("SIES", func(b *testing.B) {
		proto, err := network.NewSIESProtocol(n)
		if err != nil {
			b.Fatal(err)
		}
		run(b, proto)
	})
	b.Run("CMT", func(b *testing.B) {
		proto, err := network.NewCMTProtocol(n)
		if err != nil {
			b.Fatal(err)
		}
		run(b, proto)
	})
	b.Run("SECOAS", func(b *testing.B) {
		proto, err := network.NewSECOAProtocol(n, secoaBenchParams(b, n, 5000), 1)
		if err != nil {
			b.Fatal(err)
		}
		run(b, proto)
	})
}

// --- Extra: querier key-schedule engine ---------------------------------------

// BenchmarkEpochSchedule measures the three levers of the key-schedule
// engine against the paper's Θ(N)-HMAC querier bottleneck (Table 3):
//
//	Sequential       — PrepareEpoch on one goroutine, a fresh epoch per
//	                   iteration: the baseline per-epoch derivation cost.
//	Parallel/P{p}    — the same derivation through a Schedule with p workers
//	                   at GOMAXPROCS=p; scaling appears only on machines with
//	                   that many cores.
//	SequentialRepeat — Querier.Evaluate of one epoch over and over: the old
//	                   hot path, re-deriving N keys every time.
//	CachedRepeat     — Schedule.Evaluate of the same epoch: the cached path
//	                   duplicate sinks and retransmissions hit.
func BenchmarkEpochSchedule(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		q, sources, err := core.Setup(n)
		if err != nil {
			b.Fatal(err)
		}
		agg := core.NewAggregator(q.Params().Field())
		var final core.PSR
		for _, s := range sources {
			psr, err := s.Encrypt(1, 3000)
			if err != nil {
				b.Fatal(err)
			}
			final = agg.MergeInto(final, psr)
		}
		name := fmt.Sprintf("N%d", n)

		b.Run("Sequential/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := q.PrepareEpoch(prf.Epoch(i+1), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, p := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("Parallel/%s/P%d", name, p), func(b *testing.B) {
				prev := runtime.GOMAXPROCS(p)
				defer runtime.GOMAXPROCS(prev)
				// Unique epochs keep every request a cache miss, so only the
				// worker fan-out is measured; a small cache bounds memory.
				sched := core.NewSchedule(q, core.ScheduleConfig{Workers: p, CacheSize: 4})
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sched.EpochState(prf.Epoch(i+1), nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run("SequentialRepeat/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := q.Evaluate(1, final); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("CachedRepeat/"+name, func(b *testing.B) {
			sched := core.NewSchedule(q, core.ScheduleConfig{})
			if _, err := sched.Evaluate(1, final, nil); err != nil { // warm the cache
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sched.Evaluate(1, final, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Extra: zero-allocation hot path ------------------------------------------

// BenchmarkAggregatorMerge compares the two merge kernels at realistic child
// counts. Reducing is the historical path (one modular reduction per child,
// via MergeInto); Lazy is the 512-bit carry-chain accumulator with a single
// deferred reduction (Aggregator.Merge). Lazy must report 0 allocs/op.
func BenchmarkAggregatorMerge(b *testing.B) {
	q, sources, err := core.Setup(1024)
	if err != nil {
		b.Fatal(err)
	}
	agg := core.NewAggregator(q.Params().Field())
	all := make([]core.PSR, len(sources))
	for i, s := range sources {
		if all[i], err = s.Encrypt(1, 3000); err != nil {
			b.Fatal(err)
		}
	}
	for _, n := range []int{64, 256, 1024} {
		psrs := all[:n]
		name := fmt.Sprintf("N%d", n)
		b.Run("Reducing/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var acc core.PSR
				for _, p := range psrs {
					acc = agg.MergeInto(acc, p)
				}
			}
		})
		b.Run("Lazy/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				agg.Merge(psrs...)
			}
		})
	}
}

// BenchmarkDeriver compares per-epoch key derivation through the one-shot
// HMAC helpers (fresh key schedule per call) against the fixed-shape Deriver
// engine. The Deriver rows must report 0 allocs/op.
func BenchmarkDeriver(b *testing.B) {
	key := make([]byte, prf.LongTermKeySize)
	for i := range key {
		key[i] = byte(i * 7)
	}
	d := prf.NewDeriver(key)
	b.Run("HM256/OneShot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			prf.HM256Epoch(key, prf.Epoch(i))
		}
	})
	b.Run("HM256/Deriver", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.Epoch256(prf.Epoch(i))
		}
	})
	b.Run("HM1/OneShot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			prf.HM1Epoch(key, prf.Epoch(i))
		}
	})
	b.Run("HM1/Deriver", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.Epoch1(prf.Epoch(i))
		}
	})
}

// --- Extra: commit-and-attest scalability (paper §II-B) -----------------------

// BenchmarkExtraCommitAttest measures a full commit-and-attest epoch per N,
// the baseline model whose verification latency and traffic motivate SIES's
// sensor-free design. Compare with BenchmarkFigure6a/SIES, which is the
// *entire* SIES verification cost at the same N.
func BenchmarkExtraCommitAttest(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			topo, err := network.CompleteTree(n, 4)
			if err != nil {
				b.Fatal(err)
			}
			d, err := commitattest.New(topo)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			vals := workload.UniformReadings(n, workload.Scale100, rng)
			b.ReportAllocs()
			b.ResetTimer()
			var lastAttest int
			for i := 0; i < b.N; i++ {
				_, st, err := d.RunEpoch(prf.Epoch(i+1), vals, commitattest.NoAdversary())
				if err != nil {
					b.Fatal(err)
				}
				lastAttest = st.AttestBytes
			}
			b.ReportMetric(float64(lastAttest), "attest-bytes")
		})
	}
}
