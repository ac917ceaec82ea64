package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"github.com/sies/sies/internal/core"
	"github.com/sies/sies/internal/prf"
)

var (
	flagHotpath = flag.Bool("hotpath", false, "run the zero-allocation hot-path kernel sweep")
	flagJSON    = flag.Bool("json", false, "also write machine-readable BENCH_<suite>.json rows")
)

// benchRow is one machine-readable benchmark result. The JSON file is the
// CI artifact that tracks hot-path regressions across commits.
type benchRow struct {
	Op           string  `json:"op"`
	N            int     `json:"n"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	EpochsPerSec float64 `json:"epochs_per_sec,omitempty"`
	GitRev       string  `json:"gitrev"`
}

// benchFile is one BENCH_<suite>.json. NProc and GOMAXPROCS record the host
// shape the rows were measured on.
type benchFile struct {
	Suite      string     `json:"suite"`
	GitRev     string     `json:"gitrev"`
	GoVersion  string     `json:"go_version"`
	GOOS       string     `json:"goos"`
	GOARCH     string     `json:"goarch"`
	NProc      int        `json:"nproc"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Generated  string     `json:"generated"`
	Rows       []benchRow `json:"rows"`
}

// gitRev identifies the commit the benchmark binary was built from. The
// build-info VCS stamp is preferred — it stays correct when the binary runs
// outside the checkout (CI artifact dirs, release tarballs), where the old
// exec-git lookup silently reported whatever repo the cwd happened to be in,
// or "unknown". A modified working tree is marked -dirty so a row can never
// masquerade as a clean commit. go run and -buildvcs=off builds carry no
// stamp; those fall back to asking git.
func gitRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev string
		var dirty bool
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// writeBenchJSON writes BENCH_<suite>.json in the current directory.
func writeBenchJSON(suite string, rows []benchRow) error {
	f := benchFile{
		Suite:      suite,
		GitRev:     gitRev(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Rows:       rows,
	}
	for i := range f.Rows {
		f.Rows[i].GitRev = f.GitRev
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("BENCH_%s.json", suite)
	if err := os.WriteFile(name, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("(wrote %s)\n", name)
	return nil
}

// hotpath measures the zero-allocation kernels — the lazy-reduction
// aggregator merge and the fixed-shape HMAC Deriver — against their
// historical counterparts, asserting the zero-allocation contract as it goes.
// derive/range is the querier's per-epoch fan-out at the largest N, per
// source.
func hotpath() error {
	ns := []int{64, 256, 1024}
	if *flagQuick {
		ns = []int{64, 256}
	}

	q, sources, err := core.Setup(ns[len(ns)-1])
	if err != nil {
		return err
	}
	agg := core.NewAggregator(q.Params().Field())
	all := make([]core.PSR, len(sources))
	for i, s := range sources {
		if all[i], err = s.Encrypt(1, 3000); err != nil {
			return err
		}
	}

	var rows []benchRow
	record := func(op string, n int, r testing.BenchmarkResult) benchRow {
		row := benchRow{
			Op:          op,
			N:           n,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		rows = append(rows, row)
		return row
	}

	fmt.Printf("%-24s %6s %14s %12s %10s\n", "op", "N", "ns/op", "allocs/op", "B/op")
	printRow := func(row benchRow) {
		fmt.Printf("%-24s %6d %14.1f %12d %10d\n",
			row.Op, row.N, row.NsPerOp, row.AllocsPerOp, row.BytesPerOp)
	}

	for _, n := range ns {
		psrs := all[:n]
		red := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var acc core.PSR
				for _, p := range psrs {
					acc = agg.MergeInto(acc, p)
				}
			}
		})
		printRow(record("merge/reducing", n, red))
		lazy := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				agg.Merge(psrs...)
			}
		})
		lazyRow := record("merge/lazy", n, lazy)
		printRow(lazyRow)
		if lazyRow.AllocsPerOp != 0 {
			return fmt.Errorf("merge/lazy N=%d allocates %d times per op, want 0", n, lazyRow.AllocsPerOp)
		}
	}

	key := make([]byte, prf.LongTermKeySize)
	for i := range key {
		key[i] = byte(i * 7)
	}
	d := prf.NewDeriver(key)
	oneShot := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			prf.HM256Epoch(key, prf.Epoch(i))
		}
	})
	printRow(record("hm256/oneshot", 1, oneShot))
	for _, k := range []struct {
		op     string
		derive func(prf.Epoch)
	}{
		{"hm256/deriver", func(t prf.Epoch) { d.Epoch256(t) }},
		{"hm1/deriver", func(t prf.Epoch) { d.Epoch1(t) }},
	} {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.derive(prf.Epoch(i))
			}
		})
		row := record(k.op, 1, r)
		printRow(row)
		if row.AllocsPerOp != 0 {
			return fmt.Errorf("%s allocates %d times per op, want 0", k.op, row.AllocsPerOp)
		}
	}

	// The querier's per-epoch fan-out over every source; the row is per
	// source, so it compares directly with the single-key rows above.
	n := ns[len(ns)-1]
	rd := prf.NewRingDerivers(q.KeyRing())
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	var sink byte
	visit := func(_ int, kit [prf.Size256]byte, ss [prf.Size1]byte) error {
		sink ^= kit[0] ^ ss[0]
		return nil
	}
	fan := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := rd.DeriveRange(prf.Epoch(i), ids, visit); err != nil {
				b.Fatal(err)
			}
		}
	})
	fan.T /= time.Duration(n) // ns/op per source; allocs/op stay per sweep
	fanRow := record("derive/range", n, fan)
	printRow(fanRow)
	if fanRow.AllocsPerOp != 0 {
		return fmt.Errorf("derive/range N=%d allocates %d times per op, want 0", n, fanRow.AllocsPerOp)
	}

	if *flagJSON {
		if err := writeBenchJSON("hotpath", rows); err != nil {
			return err
		}
	}
	fmt.Println("\nShape check: lazy merge ≥2x below the reduce-per-child path at every N,")
	fmt.Println("and the merge and Deriver kernels report 0 allocs/op.")
	return nil
}
