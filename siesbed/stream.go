package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"unsafe"

	"github.com/sies/sies/internal/core"
	"github.com/sies/sies/internal/prf"
	"github.com/sies/sies/internal/transport"
	"github.com/sies/sies/internal/uint256"
)

// stream is a workload's replay input: for every epoch, each subtree's
// merged PSR (the core.MergeState of its sources' core.Source.Encrypt
// outputs), already framed for the wire, plus the SUM the querier must
// answer. Everything is derived from the seed, so a seed names its inputs.
type stream struct {
	seed   int64
	epochs int
	field  *uint256.Field
	global []byte   // querier global key K
	keys   [][]byte // per-source keys k_i
	covers [][]int  // per child, sorted source ids
	psrs   [][]byte // per child: epochs × core.PSRSize merged-PSR bytes
	frames [][]byte // per child: epochs × stride bytes of TypePSR frames
	stride int
	sums   []uint64 // expected SUM per epoch; index 0 unused
}

// frame is child j's wire frame for epoch e (1-based).
func (s *stream) frame(j, e int) []byte {
	off := (e - 1) * s.stride
	return s.frames[j][off : off+s.stride]
}

// psr is child j's merged PSR for epoch e.
func (s *stream) psr(j, e int) core.PSR {
	off := (e - 1) * core.PSRSize
	p, err := core.ParsePSR(s.psrs[j][off:off+core.PSRSize], s.field)
	if err != nil {
		panic(fmt.Sprintf("stream holds an unparsable PSR at child %d epoch %d: %v", j, e, err))
	}
	return p
}

// childPSRs is every child's merged PSR for epoch e.
func (s *stream) childPSRs(e int) []core.PSR {
	out := make([]core.PSR, len(s.covers))
	for j := range out {
		out[j] = s.psr(j, e)
	}
	return out
}

// newKeys derives the deployment's key material from the seed.
func newKeys(seed int64, n int) (global []byte, keys [][]byte) {
	keys = make([][]byte, n)
	for i := range keys {
		keys[i] = seededKey(seed, i)
	}
	return seededKey(seed, -1), keys
}

// loadStream returns the workload's replay stream for seed, served from a
// read-only mapping of its cache file under cacheDir. When the cache holds
// no valid copy, a child process (this program's pregen command) encrypts
// the stream and writes it there first, so pre-generation's heap never
// enters the measuring process, and a cache hit and a miss leave that
// process alike. The mapped pages are file-backed and outside the Go heap:
// the garbage collector does not pace on them, and they do not count in the
// process's anonymous memory, of which rss_mb is a reading. The second
// return reports a cache hit.
func loadStream(w workload, seed int64, epochs int, cacheDir string) (*stream, bool, error) {
	path := filepath.Join(cacheDir, fmt.Sprintf("%s-seed%d-epochs%d.bin", w.name, seed, epochs))
	if s, err := mapStream(w, seed, epochs, path); err == nil {
		return s, true, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, false, err
	}
	cmd := exec.Command(exe, "pregen", "--workload", w.name, "--seed", fmt.Sprint(seed),
		"--epochs", fmt.Sprint(epochs), "--out", path)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, false, fmt.Errorf("pregen: %w", err)
	}
	s, err := mapStream(w, seed, epochs, path)
	if err != nil {
		return nil, false, fmt.Errorf("mapping the cache pregen wrote: %w", err)
	}
	return s, false, nil
}

// newStream is the stream's shape and key material, without its data.
func newStream(w workload, seed int64, epochs int) (*stream, core.Params, error) {
	params, err := core.NewParams(w.n)
	if err != nil {
		return nil, core.Params{}, err
	}
	s := &stream{seed: seed, epochs: epochs, field: params.Field(), covers: w.covers()}
	s.global, s.keys = newKeys(seed, w.n)
	return s, params, nil
}

// generateStream encrypts the workload's stream for seed (on every core),
// frames it, and writes it to the cache file at path.
func generateStream(w workload, seed int64, epochs int, path string) error {
	s, params, err := newStream(w, seed, epochs)
	if err != nil {
		return err
	}
	if err := s.encrypt(params); err != nil {
		return err
	}
	s.sums = make([]uint64, epochs+1)
	all := allIDs(w.n)
	for e := 1; e <= epochs; e++ {
		s.sums[e] = expectedSum(seed, prf.Epoch(e), all)
	}
	s.buildFrames()
	return s.writeCache(path)
}

// mapStream maps the cache file at path and checks it holds the workload's
// stream for seed.
func mapStream(w workload, seed int64, epochs int, path string) (*stream, error) {
	s, _, err := newStream(w, seed, epochs)
	if err != nil {
		return nil, err
	}
	return s, s.mapCache(path)
}

// encrypt fills s.psrs by running every source's Encrypt for every epoch
// and merging each subtree. Workers take interleaved epochs, each with its
// own Source values, because a Source caches per-epoch state.
func (s *stream) encrypt(params core.Params) error {
	s.psrs = make([][]byte, len(s.covers))
	for j := range s.psrs {
		s.psrs[j] = make([]byte, s.epochs*core.PSRSize)
	}
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			errs[wk] = s.encryptEpochs(params, wk+1, workers)
		}(wk)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// encryptEpochs encrypts epochs first, first+step, … into s.psrs.
func (s *stream) encryptEpochs(params core.Params, first, step int) error {
	sources := make([]*core.Source, len(s.keys))
	for i := range sources {
		src, err := core.NewSource(i, s.global, s.keys[i], params)
		if err != nil {
			return err
		}
		sources[i] = src
	}
	merger := core.NewAggregator(s.field)
	for e := first; e <= s.epochs; e += step {
		for j, ids := range s.covers {
			m := merger.NewMerge()
			for _, id := range ids {
				p, err := sources[id].Encrypt(prf.Epoch(e), reading(s.seed, prf.Epoch(e), id))
				if err != nil {
					return err
				}
				m.Add(p)
			}
			b := m.Final().Bytes()
			copy(s.psrs[j][(e-1)*core.PSRSize:], b[:])
		}
	}
	return nil
}

// buildFrames encodes every merged PSR as the TypePSR frame a child sends,
// with transport.EncodeReport and transport.AppendFrame.
func (s *stream) buildFrames() {
	frame := func(j, e int) transport.Frame {
		return transport.Frame{Type: transport.TypePSR, Epoch: uint64(e), Payload: transport.EncodeReport(s.psr(j, e), nil)}
	}
	// Every frame has the same size: a fixed header, one PSR, an empty
	// failed list.
	s.stride = len(transport.AppendFrame(nil, frame(0, 1)))
	s.frames = make([][]byte, len(s.covers))
	for j := range s.frames {
		buf := make([]byte, 0, s.stride*s.epochs)
		for e := 1; e <= s.epochs; e++ {
			buf = transport.AppendFrame(buf, frame(j, e))
		}
		s.frames[j] = buf
	}
}

// Cache file layout: a 32-byte header ("SIESBED2", then u64 seed and u32
// epochs, sources, children and frame stride), the expected sums (u64 per
// epoch, index 0 unused; the header keeps them 8-byte aligned), each
// child's merged-PSR bytes, each child's frames, then the SHA-256 of
// everything before it. Integers are big-endian, except the sums, which are
// in the host's order so the mapping can be read in place.
const cacheMagic = "SIESBED2"

func (s *stream) cacheHeader(stride int) []byte {
	h := []byte(cacheMagic)
	h = binary.BigEndian.AppendUint64(h, uint64(s.seed))
	h = binary.BigEndian.AppendUint32(h, uint32(s.epochs))
	h = binary.BigEndian.AppendUint32(h, uint32(len(s.keys)))
	h = binary.BigEndian.AppendUint32(h, uint32(len(s.covers)))
	return binary.BigEndian.AppendUint32(h, uint32(stride))
}

// mapCache maps the cache file read-only and points the stream's sums,
// merged PSRs and frames into it, after checking its shape and checksum.
// The mapping lasts as long as the process.
func (s *stream) mapCache(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	hdrLen := len(s.cacheHeader(0))
	if fi.Size() < int64(hdrLen) {
		return errors.New("cache file is too short")
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(fi.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return err
	}
	stride := int(binary.BigEndian.Uint32(data[hdrLen-4 : hdrLen]))
	nc, psrLen, frameLen := len(s.covers), s.epochs*core.PSRSize, s.epochs*stride
	size := hdrLen + 8*(s.epochs+1) + nc*(psrLen+frameLen) + sha256.Size
	ok := len(data) == size && bytes.Equal(data[:hdrLen], s.cacheHeader(stride))
	if ok {
		sum := sha256.Sum256(data[:size-sha256.Size])
		ok = bytes.Equal(sum[:], data[size-sha256.Size:])
	}
	if !ok {
		syscall.Munmap(data)
		return errors.New("cache file has the wrong shape or checksum")
	}
	s.stride = stride
	s.sums = unsafe.Slice((*uint64)(unsafe.Pointer(&data[hdrLen])), s.epochs+1)
	off := hdrLen + 8*(s.epochs+1)
	take := func(n int) []byte {
		b := data[off : off+n : off+n]
		off += n
		return b
	}
	s.psrs, s.frames = make([][]byte, nc), make([][]byte, nc)
	for j := range s.psrs {
		s.psrs[j] = take(psrLen)
	}
	for j := range s.frames {
		s.frames[j] = take(frameLen)
	}
	return nil
}

// writeCache stores the stream atomically (temp file, then rename), so an
// interrupted run never leaves a torn cache entry behind.
func (s *stream) writeCache(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	h := sha256.New()
	w := bufio.NewWriter(io.MultiWriter(f, h))
	w.Write(s.cacheHeader(s.stride))
	w.Write(unsafe.Slice((*byte)(unsafe.Pointer(&s.sums[0])), 8*len(s.sums)))
	for _, p := range s.psrs {
		w.Write(p)
	}
	for _, fr := range s.frames {
		w.Write(fr)
	}
	err = w.Flush()
	if err == nil {
		_, err = f.Write(h.Sum(nil))
	}
	if err = errors.Join(err, f.Close()); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
