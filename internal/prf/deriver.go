package prf

import (
	"crypto/sha1"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// This file implements the fixed-shape HMAC derivation engine.
//
// HM1 and HM256 compute HMAC(key, t) with hmac.New on every call, which
// re-runs the underlying hash over both 64-byte key pads — the key schedule —
// and allocates the MAC object, the pad buffers and the digest slice each
// time. For a fixed long-term key the pads never change, so a Deriver
// compresses key⊕ipad and key⊕opad once, at construction, into four
// midstates (inner and outer, for SHA-1 and for SHA-256).
//
// The message is always an 8-byte epoch, so what is left of each HMAC is
// exactly two compressions on those midstates: one inner block, then one
// outer block holding the inner digest. SHA-1 and SHA-256 share
// Merkle–Damgård padding, so the inner block (t ‖ 0x80 ‖ 0… ‖ bit length
// 576) is the same for both hashes and for every key; DeriveRange builds it
// once per epoch and pays four compressions per source. A Deriver is
// immutable after construction: it needs no lock and allocates nothing.
// kernel.go holds the compressions and the portable kernel that stands in
// for them off SHA-NI.

// hmacBlockSize is the input block size shared by SHA-1 and SHA-256 (64
// bytes), over which the HMAC pads are formed.
const hmacBlockSize = 64

// Initial hash values (FIPS 180-4 §5.3.1 and §5.3.3).
var (
	iv1   = [5]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0}
	iv256 = [8]uint32{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19}
)

// paddedBlock returns the last (and only) block of a message that follows
// one 64-byte pad block and whose msgLen bytes sit at the block's head:
// room for the message, 0x80, and the big-endian bit length of pad and
// message together.
func paddedBlock(msgLen int) (b [hmacBlockSize]byte) {
	b[msgLen] = 0x80
	binary.BigEndian.PutUint64(b[hmacBlockSize-8:], uint64(hmacBlockSize+msgLen)*8)
	return b
}

// Outer blocks with the padding already in place; a derivation copies one
// and lays the inner digest into its head.
var (
	outerBlock1   = paddedBlock(Size1)
	outerBlock256 = paddedBlock(Size256)
)

// epochBlock is the inner block of HMAC(·, t) for both hashes.
func epochBlock(t Epoch) [hmacBlockSize]byte {
	b := paddedBlock(8)
	binary.BigEndian.PutUint64(b[:8], uint64(t))
	return b
}

// Deriver serves the per-epoch PRFs of one long-term key with the HMAC key
// schedule paid once at construction: Epoch256 is HM256(key, t) and Epoch1
// is HM1(key, t), both allocation-free per call. A Deriver is immutable
// after construction and safe for concurrent use.
type Deriver struct {
	inner1, outer1     [5]uint32
	inner256, outer256 [8]uint32
}

// NewDeriver precomputes both HMAC key schedules for key.
func NewDeriver(key []byte) *Deriver {
	d := new(Deriver)
	d.init(key)
	return d
}

func (d *Deriver) init(key []byte) {
	k1, k256 := key, key
	if len(key) > hmacBlockSize {
		// RFC 2104: long keys are first hashed down, by each HMAC's own hash.
		s1, s256 := sha1.Sum(key), sha256.Sum256(key)
		k1, k256 = s1[:], s256[:]
	}
	ipad, opad := pads(k1)
	d.inner1, d.outer1 = iv1, iv1
	block1(&d.inner1, &ipad)
	block1(&d.outer1, &opad)
	ipad, opad = pads(k256)
	d.inner256, d.outer256 = iv256, iv256
	block256(&d.inner256, &ipad)
	block256(&d.outer256, &opad)
}

// pads returns key⊕ipad and key⊕opad for a key of at most one block.
func pads(key []byte) (ipad, opad [hmacBlockSize]byte) {
	copy(ipad[:], key)
	copy(opad[:], key)
	for i := range ipad {
		ipad[i] ^= 0x36
		opad[i] ^= 0x5c
	}
	return ipad, opad
}

// mac256 finishes HMAC-SHA256 over the inner block of an epoch; k is the
// portable kernel's hashes, nil on the SHA-NI kernel.
func (d *Deriver) mac256(k *portable, inner *[hmacBlockSize]byte) (out [Size256]byte) {
	if k != nil {
		copy(out[:], k.mac(&k.sha256, d.inner256[:], d.outer256[:]))
		return out
	}
	h := d.inner256
	block256SHANI(&h, inner)
	b := outerBlock256
	putWords(b[:], h[:])
	h = d.outer256
	block256SHANI(&h, &b)
	putWords(out[:], h[:])
	return out
}

// mac1 finishes HMAC-SHA1 over the inner block of an epoch; k is as for
// mac256.
func (d *Deriver) mac1(k *portable, inner *[hmacBlockSize]byte) (out [Size1]byte) {
	if k != nil {
		copy(out[:], k.mac(&k.sha1, d.inner1[:], d.outer1[:]))
		return out
	}
	h := d.inner1
	block1SHANI(&h, inner)
	b := outerBlock1
	putWords(b[:], h[:])
	h = d.outer1
	block1SHANI(&h, &b)
	putWords(out[:], h[:])
	return out
}

// putWords writes h big-endian at the head of b.
func putWords(b []byte, h []uint32) {
	for i, w := range h {
		binary.BigEndian.PutUint32(b[4*i:], w)
	}
}

// Epoch256 computes HM256(key, t) — the key-derivation PRF.
func (d *Deriver) Epoch256(t Epoch) [Size256]byte {
	inner := epochBlock(t)
	k := getPortable(&inner)
	defer putPortable(k)
	return d.mac256(k, &inner)
}

// Epoch1 computes HM1(key, t) — the secret-share PRF.
func (d *Deriver) Epoch1(t Epoch) [Size1]byte {
	inner := epochBlock(t)
	k := getPortable(&inner)
	defer putPortable(k)
	return d.mac1(k, &inner)
}

// RingDerivers is the querier-side derivation engine: one Deriver per key of
// a KeyRing, built once so every epoch's Θ(N) fan-out skips the HMAC key
// schedules entirely. Derivers are immutable, so the schedule engine's
// workers derive concurrently with no contention.
type RingDerivers struct {
	global  Deriver
	sources []Deriver
}

// NewRingDerivers precomputes the pads for every key in the ring.
func NewRingDerivers(kr *KeyRing) *RingDerivers {
	rd := &RingDerivers{sources: make([]Deriver, kr.N())}
	rd.global.init(kr.Global)
	for i := range rd.sources {
		rd.sources[i].init(kr.Source[i])
	}
	return rd
}

// N returns the number of source derivers.
func (rd *RingDerivers) N() int { return len(rd.sources) }

// GlobalKey derives K_t through the cached global-key pads.
func (rd *RingDerivers) GlobalKey(t Epoch) [Size256]byte {
	return rd.global.Epoch256(t)
}

// SourceKey derives k_{i,t} through source i's cached pads.
func (rd *RingDerivers) SourceKey(i int, t Epoch) ([Size256]byte, error) {
	if i < 0 || i >= len(rd.sources) {
		return [Size256]byte{}, fmt.Errorf("prf: source id %d out of range [0,%d)", i, len(rd.sources))
	}
	return rd.sources[i].Epoch256(t), nil
}

// Share derives ss_{i,t} through source i's cached pads.
func (rd *RingDerivers) Share(i int, t Epoch) ([Size1]byte, error) {
	if i < 0 || i >= len(rd.sources) {
		return [Size1]byte{}, fmt.Errorf("prf: source id %d out of range [0,%d)", i, len(rd.sources))
	}
	return rd.sources[i].Epoch1(t), nil
}

// DeriveRange is the batch API for the schedule engine's worker pool: it
// derives (k_{i,t}, ss_{i,t}) for every id in ids, in order, handing each
// pair to visit without allocating. The inner block is built once for the
// whole sweep, so each source costs four compressions (on the portable
// kernel, one set of pooled hashes serves the sweep). A visit error aborts
// the sweep. Calls may run concurrently.
func (rd *RingDerivers) DeriveRange(t Epoch, ids []int, visit func(id int, kit [Size256]byte, ss [Size1]byte) error) error {
	inner := epochBlock(t)
	k := getPortable(&inner)
	defer putPortable(k)
	for _, id := range ids {
		if id < 0 || id >= len(rd.sources) {
			return fmt.Errorf("prf: source id %d out of range [0,%d)", id, len(rd.sources))
		}
		d := &rd.sources[id]
		if err := visit(id, d.mac256(k, &inner), d.mac1(k, &inner)); err != nil {
			return err
		}
	}
	return nil
}
