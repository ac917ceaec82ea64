package prf

import (
	"crypto/sha1"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash"
	"sync"
)

// This file holds the two kernels the HMAC engine is built on.
//
// On amd64 with SHA-NI, block1 and block256 absorb exactly one 64-byte block
// into a raw SHA-1 or SHA-256 state (a midstate) in the assembly of
// kernel_amd64.s, with no padding and no length bookkeeping; the callers in
// deriver.go lay out every padded block themselves.
//
// Every other CPU and GOARCH takes the portable kernel, which finishes a
// whole HMAC on the standard library's hashes and so keeps their assembly
// (the SHA instructions on arm64, AVX2 on amd64 without SHA-NI): restore the
// inner midstate, write the 8-byte epoch, Sum (the standard padding yields
// the same inner block), then the same over the outer midstate and the inner
// digest. Per HMAC that is two state restores and two Sums, the work the
// snapshot engine before it did, on API every supported Go release has. A
// derivation or a DeriveRange sweep takes one pooled set of hashes, so the
// path allocates nothing.

// block1 compresses one block into the SHA-1 state h.
func block1(h *[5]uint32, p *[hmacBlockSize]byte) {
	if useSHANI {
		block1SHANI(h, p)
		return
	}
	portableBlock(h[:], p)
}

// block256 compresses one block into the SHA-256 state h.
func block256(h *[8]uint32, p *[hmacBlockSize]byte) {
	if useSHANI {
		block256SHANI(h, p)
		return
	}
	portableBlock(h[:], p)
}

// The standard library's marshaled hash state is a 4-byte magic ‖ state
// words ‖ 64-byte buffer ‖ 64-bit byte count, all big-endian.
const (
	sha1Magic   = "sha\x01"
	sha256Magic = "sha\x03"
)

// stdHash is a standard-library hash with its state decoder, asserted once
// when the pool builds it, and a marshaled state whose magic and byte count
// (one block) are laid out once; a restore writes only the words.
type stdHash struct {
	hash.Hash
	encoding.BinaryUnmarshaler
	state []byte
}

func newStdHash(h hash.Hash, magic string, words int) stdHash {
	st := make([]byte, len(magic)+4*words+hmacBlockSize+8)
	copy(st, magic)
	binary.BigEndian.PutUint64(st[len(st)-8:], hmacBlockSize)
	return stdHash{Hash: h, BinaryUnmarshaler: h.(encoding.BinaryUnmarshaler), state: st}
}

// restore loads h with midstate words, the state after exactly one block.
func (h *stdHash) restore(words []uint32) {
	for i, w := range words {
		binary.BigEndian.PutUint32(h.state[len(sha1Magic)+4*i:], w)
	}
	if err := h.UnmarshalBinary(h.state); err != nil {
		panic(fmt.Sprintf("prf: restoring a hash midstate: %v", err))
	}
}

// portable is one SHA-1 and one SHA-256 hash plus the buffers they are
// driven through. Everything that crosses the hash.Hash interface lives here,
// so the callers' stack blocks never escape.
type portable struct {
	sha1, sha256 stdHash
	block        [hmacBlockSize]byte
	msg          [8]byte // the epoch being derived
	sum          [Size256]byte
}

var portablePool = sync.Pool{New: func() any {
	return &portable{
		sha1:   newStdHash(sha1.New(), sha1Magic, 5),
		sha256: newStdHash(sha256.New(), sha256Magic, 8),
	}
}}

// getPortable returns the portable kernel's hashes loaded with the epoch at
// the head of inner, or nil when the SHA-NI kernel is in use. Release it
// with putPortable.
func getPortable(inner *[hmacBlockSize]byte) *portable {
	if useSHANI {
		return nil
	}
	k := portablePool.Get().(*portable)
	copy(k.msg[:], inner[:8])
	return k
}

func putPortable(k *portable) {
	if k != nil {
		portablePool.Put(k)
	}
}

// mac finishes HMAC(key, k.msg) from the key's inner and outer midstates.
// The tag it returns aliases k.sum.
func (k *portable) mac(hh *stdHash, inner, outer []uint32) []byte {
	hh.restore(inner)
	hh.Write(k.msg[:])
	digest := hh.Sum(k.sum[:0])
	hh.restore(outer)
	hh.Write(digest)
	return hh.Sum(k.sum[:0])
}

// portableBlock compresses p into h (5 words for SHA-1, 8 for SHA-256)
// through a standard-library hash and reads the words back. It builds
// midstates at construction only, where MarshalBinary's allocation is paid
// once per key.
func portableBlock(h []uint32, p *[hmacBlockSize]byte) {
	k := portablePool.Get().(*portable)
	defer portablePool.Put(k)
	hh := &k.sha1
	if len(h) == 8 {
		hh = &k.sha256
	}
	hh.restore(h)
	copy(k.block[:], p[:])
	hh.Write(k.block[:])
	st, err := hh.Hash.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("prf: reading a hash midstate: %v", err))
	}
	for i := range h {
		h[i] = binary.BigEndian.Uint32(st[len(sha1Magic)+4*i:])
	}
}
