package prf

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"github.com/sies/sies/internal/race"
)

// deriverTestKeys covers the HMAC key regimes: empty, short (the deployed
// 20-byte form), exactly one block, and longer than a block (hashed down per
// RFC 2104).
func deriverTestKeys() [][]byte {
	long := bytes.Repeat([]byte{0xaa}, 131)
	block := bytes.Repeat([]byte{0x0b}, hmacBlockSize)
	return [][]byte{
		{},
		[]byte("Jefe"),
		bytes.Repeat([]byte{0x0b}, LongTermKeySize),
		block,
		long,
	}
}

// eachKernel runs fn once per compression kernel: the portable one always,
// the SHA-NI one where the CPU has it.
func eachKernel(t *testing.T, fn func(t *testing.T)) {
	hw := useSHANI
	defer func() { useSHANI = hw }()
	for _, k := range []struct {
		name  string
		shani bool
	}{{"portable", false}, {"shani", true}} {
		t.Run(k.name, func(t *testing.T) {
			if k.shani && !hw {
				t.Skip("no SHA-NI kernel on this CPU")
			}
			useSHANI = k.shani
			fn(t)
		})
	}
}

func TestDeriverMatchesHMAC(t *testing.T) { eachKernel(t, testDeriverMatchesHMAC) }

func testDeriverMatchesHMAC(t *testing.T) {
	for ki, key := range deriverTestKeys() {
		d := NewDeriver(key)
		for _, epoch := range []Epoch{0, 1, 2, 1 << 20, ^Epoch(0)} {
			if got, want := d.Epoch256(epoch), HM256Epoch(key, epoch); got != want {
				t.Fatalf("key %d epoch %d: Epoch256 = %x, want %x", ki, epoch, got, want)
			}
			if got, want := d.Epoch1(epoch), HM1Epoch(key, epoch); got != want {
				t.Fatalf("key %d epoch %d: Epoch1 = %x, want %x", ki, epoch, got, want)
			}
		}
		// Interleaving the two PRFs must not cross-contaminate state.
		a := d.Epoch256(7)
		b := d.Epoch1(7)
		if a != HM256Epoch(key, 7) || b != HM1Epoch(key, 7) {
			t.Fatalf("key %d: interleaved derivations diverged", ki)
		}
	}
}

func TestRingDeriversMatchKeyRing(t *testing.T) {
	kr, err := NewKeyRing(9)
	if err != nil {
		t.Fatal(err)
	}
	rd := NewRingDerivers(kr)
	if rd.N() != kr.N() {
		t.Fatalf("RingDerivers covers %d sources, ring has %d", rd.N(), kr.N())
	}
	for _, epoch := range []Epoch{1, 42, 1 << 33} {
		if got, want := rd.GlobalKey(epoch), kr.EpochGlobalKey(epoch); got != want {
			t.Fatalf("epoch %d: global key mismatch", epoch)
		}
		for i := 0; i < kr.N(); i++ {
			want, _ := kr.EpochSourceKey(i, epoch)
			got, err := rd.SourceKey(i, epoch)
			if err != nil || got != want {
				t.Fatalf("epoch %d source %d: key mismatch (err=%v)", epoch, i, err)
			}
			wantSS, _ := kr.EpochShare(i, epoch)
			gotSS, err := rd.Share(i, epoch)
			if err != nil || gotSS != wantSS {
				t.Fatalf("epoch %d source %d: share mismatch (err=%v)", epoch, i, err)
			}
		}
	}
	if _, err := rd.SourceKey(9, 1); err == nil {
		t.Fatal("out-of-range source id accepted")
	}
	if _, err := rd.Share(-1, 1); err == nil {
		t.Fatal("negative source id accepted")
	}
}

func TestDeriveRange(t *testing.T) { eachKernel(t, testDeriveRange) }

func testDeriveRange(t *testing.T) {
	kr, err := NewKeyRing(12)
	if err != nil {
		t.Fatal(err)
	}
	rd := NewRingDerivers(kr)
	ids := []int{3, 0, 7, 11}
	var seen []int
	err = rd.DeriveRange(5, ids, func(id int, kit [Size256]byte, ss [Size1]byte) error {
		seen = append(seen, id)
		wantK, _ := kr.EpochSourceKey(id, 5)
		wantS, _ := kr.EpochShare(id, 5)
		if kit != wantK || ss != wantS {
			t.Fatalf("source %d: batch derivation mismatch", id)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(ids) {
		t.Fatalf("visited %v, want %v", seen, ids)
	}
	for i, id := range ids {
		if seen[i] != id {
			t.Fatalf("visit order %v, want %v", seen, ids)
		}
	}
	if err := rd.DeriveRange(5, []int{12}, func(int, [Size256]byte, [Size1]byte) error { return nil }); err == nil {
		t.Fatal("out-of-range id accepted by DeriveRange")
	}
}

// TestDeriverConcurrent hammers one Deriver from many goroutines; run with
// -race this doubles as the check that a Deriver is never written after
// construction.
func TestDeriverConcurrent(t *testing.T) { eachKernel(t, testDeriverConcurrent) }

func testDeriverConcurrent(t *testing.T) {
	key := bytes.Repeat([]byte{0x42}, LongTermKeySize)
	d := NewDeriver(key)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				epoch := Epoch(g*1000 + i)
				if d.Epoch256(epoch) != HM256Epoch(key, epoch) {
					errs <- "Epoch256 diverged under concurrency"
					return
				}
				if d.Epoch1(epoch) != HM1Epoch(key, epoch) {
					errs <- "Epoch1 diverged under concurrency"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestDeriverAllocs is the allocation-regression gate for epoch derivation:
// after construction, serving K_t / k_{i,t} / ss_{i,t} must not touch the
// heap, on either kernel.
func TestDeriverAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	eachKernel(t, testDeriverAllocs)
}

func testDeriverAllocs(t *testing.T) {
	key := bytes.Repeat([]byte{0x17}, LongTermKeySize)
	d := NewDeriver(key)
	var epoch Epoch
	var sink byte
	if n := testing.AllocsPerRun(200, func() {
		epoch++
		k := d.Epoch256(epoch)
		s := d.Epoch1(epoch)
		sink ^= k[0] ^ s[0]
	}); n != 0 {
		t.Fatalf("Deriver epoch derivation allocated %.1f times per run, want 0", n)
	}

	kr, err := NewKeyRing(16)
	if err != nil {
		t.Fatal(err)
	}
	rd := NewRingDerivers(kr)
	ids := []int{0, 3, 5, 9, 15}
	visit := func(id int, kit [Size256]byte, ss [Size1]byte) error {
		sink ^= kit[0] ^ ss[0]
		return nil
	}
	if n := testing.AllocsPerRun(200, func() {
		epoch++
		if err := rd.DeriveRange(epoch, ids, visit); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("DeriveRange allocated %.1f times per run, want 0", n)
	}
	_ = sink
}

// TestKernelsAgree is the block-level differential test: the SHA-NI
// compressions must match the portable ones on arbitrary midstates and
// blocks, not only on the states HMAC happens to reach.
func TestKernelsAgree(t *testing.T) {
	if !useSHANI {
		t.Skip("no SHA-NI kernel on this CPU")
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 2000; i++ {
		var p [hmacBlockSize]byte
		rng.Read(p[:])
		var h1 [5]uint32
		var h256 [8]uint32
		for j := range h1 {
			h1[j] = rng.Uint32()
		}
		for j := range h256 {
			h256[j] = rng.Uint32()
		}
		a1, b1 := h1, h1
		block1SHANI(&a1, &p)
		portableBlock(b1[:], &p)
		if a1 != b1 {
			t.Fatalf("block %d: SHA-1 kernels disagree: shani %08x, portable %08x", i, a1, b1)
		}
		a256, b256 := h256, h256
		block256SHANI(&a256, &p)
		portableBlock(b256[:], &p)
		if a256 != b256 {
			t.Fatalf("block %d: SHA-256 kernels disagree: shani %08x, portable %08x", i, a256, b256)
		}
	}
}

// FuzzDeriver compares both kernels with crypto/hmac on keys of 0 to 200
// bytes and arbitrary epochs, covering the long-key hash-down of RFC 2104.
func FuzzDeriver(f *testing.F) {
	for i, key := range deriverTestKeys() {
		f.Add(key, uint64(i))
	}
	f.Add(bytes.Repeat([]byte{0x5a}, 200), ^uint64(0))
	hw := useSHANI
	f.Fuzz(func(t *testing.T, key []byte, epoch uint64) {
		if len(key) > 200 {
			key = key[:200]
		}
		defer func() { useSHANI = hw }()
		for _, shani := range []bool{false, hw} {
			useSHANI = shani
			d := NewDeriver(key)
			if got, want := d.Epoch256(Epoch(epoch)), HM256Epoch(key, Epoch(epoch)); got != want {
				t.Fatalf("shani=%v key %x epoch %d: Epoch256 = %x, want %x", shani, key, epoch, got, want)
			}
			if got, want := d.Epoch1(Epoch(epoch)), HM1Epoch(key, Epoch(epoch)); got != want {
				t.Fatalf("shani=%v key %x epoch %d: Epoch1 = %x, want %x", shani, key, epoch, got, want)
			}
		}
	})
}

// BenchmarkDeriveRange times the querier's per-epoch fan-out at N=1024 on
// each kernel; ns/op is per source.
func BenchmarkDeriveRange(b *testing.B) {
	kr, err := NewKeyRing(1024)
	if err != nil {
		b.Fatal(err)
	}
	rd := NewRingDerivers(kr)
	ids := make([]int, kr.N())
	for i := range ids {
		ids[i] = i
	}
	var sink byte
	visit := func(_ int, kit [Size256]byte, ss [Size1]byte) error {
		sink ^= kit[0] ^ ss[0]
		return nil
	}
	hw := useSHANI
	defer func() { useSHANI = hw }()
	for _, k := range []struct {
		name  string
		shani bool
	}{{"portable", false}, {"shani", true}} {
		b.Run(k.name, func(b *testing.B) {
			if k.shani && !hw {
				b.Skip("no SHA-NI kernel on this CPU")
			}
			useSHANI = k.shani
			b.ReportAllocs()
			for i := 0; i < b.N; i += len(ids) {
				if err := rd.DeriveRange(Epoch(i), ids, visit); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	_ = sink
}
