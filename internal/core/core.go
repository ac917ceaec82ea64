// Package core implements the SIES protocol — the paper's primary
// contribution (§IV): Secure In-network processing of Exact SUM queries with
// data confidentiality, integrity, authentication and freshness.
//
// The protocol has four phases:
//
//	Setup          — the querier generates long-term keys (K, k₁..k_N) and a
//	                 256-bit prime p, registers (K, kᵢ, p) at each source and
//	                 p at each aggregator.
//	Initialization — at epoch t each source derives K_t = HM256(K,t),
//	                 k_{i,t} = HM256(kᵢ,t) and ss_{i,t} = HM1(kᵢ,t), packs
//	                 m_{i,t} = v‖0-pad‖ss and emits the 32-byte partial state
//	                 record PSR_{i,t} = E(m_{i,t}, K_t, k_{i,t}, p).
//	Merging        — an aggregator adds the PSRs of its children modulo p.
//	Evaluation     — the querier decrypts the final PSR with (K_t, Σ k_{i,t}),
//	                 splits it into the SUM result and the aggregate secret
//	                 s_t, and accepts iff s_t equals Σ HM1(kᵢ,t) over the
//	                 contributing sources.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/sies/sies/internal/homomorphic"
	"github.com/sies/sies/internal/message"
	"github.com/sies/sies/internal/prf"
	"github.com/sies/sies/internal/secretshare"
	"github.com/sies/sies/internal/uint256"
)

// PSRSize is the wire size of a partial state record: one 32-byte field
// element, constant per network edge (paper Table V).
const PSRSize = 32

// Errors reported by the protocol.
var (
	// ErrIntegrity means the aggregate secret embedded in the final PSR does
	// not match the querier's recomputation: the result was tampered with,
	// a PSR was dropped or injected, or a stale PSR was replayed.
	ErrIntegrity = errors.New("sies: integrity verification failed")
	// ErrResultOverflow means the aggregated SUM exceeded the layout's value
	// field, so the extracted result would be meaningless.
	ErrResultOverflow = errors.New("sies: SUM result overflows the value field")
	// ErrBadPSR is returned when parsing a malformed wire PSR.
	ErrBadPSR = errors.New("sies: malformed PSR")
	// ErrBadContributors is returned when a contributor list handed to the
	// evaluation API is not a set of valid source ids: empty, a duplicate id,
	// a negative id, or an id at or past the deployment size.
	ErrBadContributors = errors.New("sies: invalid contributor list")
)

// PSR is a partial state record: a ciphertext in [0, p).
type PSR struct {
	C uint256.Int
}

// Bytes serialises the PSR to its 32-byte wire form.
func (r PSR) Bytes() [PSRSize]byte { return r.C.Bytes() }

// ParsePSR decodes a wire PSR and range-checks it against the modulus.
func ParsePSR(buf []byte, f *uint256.Field) (PSR, error) {
	if len(buf) != PSRSize {
		return PSR{}, fmt.Errorf("%w: length %d", ErrBadPSR, len(buf))
	}
	c, err := uint256.SetBytes(buf)
	if err != nil {
		return PSR{}, fmt.Errorf("%w: %v", ErrBadPSR, err)
	}
	if c.Cmp(f.Modulus()) >= 0 {
		return PSR{}, fmt.Errorf("%w: ciphertext not in [0, p)", ErrBadPSR)
	}
	return PSR{C: c}, nil
}

// Params carries the public protocol configuration shared by all parties.
type Params struct {
	layout message.Layout
	scheme *homomorphic.Scheme
}

// Option customises Setup.
type Option func(*setupConfig) error

type setupConfig struct {
	field     *uint256.Field
	valueBits int
}

// WithField selects a specific prime field instead of the default
// p = 2^256 − 189.
func WithField(f *uint256.Field) Option {
	return func(c *setupConfig) error {
		if f == nil {
			return errors.New("sies: nil field")
		}
		c.field = f
		return nil
	}
}

// WithWideValues switches the plaintext layout to 8-byte values, raising the
// maximum exact SUM from 2^32−1 to 2^64−1 (paper footnote 1) at the cost of
// supporting at most 2^32 sources.
func WithWideValues() Option {
	return func(c *setupConfig) error {
		c.valueBits = message.ValueBits64
		return nil
	}
}

// NewParams validates and assembles protocol parameters for n sources.
func NewParams(n int, opts ...Option) (Params, error) {
	cfg := setupConfig{field: uint256.NewDefaultField(), valueBits: message.ValueBits32}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return Params{}, err
		}
	}
	layout, err := message.New(n, cfg.valueBits)
	if err != nil {
		return Params{}, err
	}
	scheme := homomorphic.New(cfg.field)
	if !layout.FitsField(cfg.field) {
		return Params{}, fmt.Errorf("sies: layout (n=%d, %d-bit values) can overflow modulus %v",
			n, cfg.valueBits, cfg.field.Modulus())
	}
	return Params{layout: layout, scheme: scheme}, nil
}

// Layout returns the plaintext layout in use.
func (p Params) Layout() message.Layout { return p.layout }

// Field returns the prime field in use; aggregators need only this.
func (p Params) Field() *uint256.Field { return p.scheme.Field() }

// Scheme returns the homomorphic cipher bound to the field.
func (p Params) Scheme() *homomorphic.Scheme { return p.scheme }

// N returns the number of sources the deployment was set up for.
func (p Params) N() int { return p.layout.Sources() }

// Setup runs the setup phase for n sources: it generates the key ring and
// returns the querier plus one Source per id. In a real deployment the
// (K, kᵢ, p) triples are installed manually on the motes; here the caller
// distributes the returned Source values.
func Setup(n int, opts ...Option) (*Querier, []*Source, error) {
	params, err := NewParams(n, opts...)
	if err != nil {
		return nil, nil, err
	}
	ring, err := prf.NewKeyRing(n)
	if err != nil {
		return nil, nil, err
	}
	q := newQuerier(params, ring)
	sources := make([]*Source, n)
	for i := range sources {
		global, ki, err := ring.SourceCredentials(i)
		if err != nil {
			return nil, nil, err
		}
		sources[i] = &Source{id: i, params: params, global: global, ki: ki}
	}
	return q, sources, nil
}

// NewSource reconstructs a source from provisioned credentials (K, kᵢ) —
// the path taken by a networked deployment where keys were installed by a
// provisioning tool rather than generated in-process by Setup.
func NewSource(id int, global, ki []byte, params Params) (*Source, error) {
	if id < 0 || id >= params.N() {
		return nil, fmt.Errorf("sies: source id %d out of range [0,%d)", id, params.N())
	}
	if len(global) == 0 || len(ki) == 0 {
		return nil, errors.New("sies: source needs both the global and its private key")
	}
	return &Source{id: id, params: params,
		global: append([]byte(nil), global...), ki: append([]byte(nil), ki...)}, nil
}

// NewQuerier reconstructs a querier from a provisioned key ring.
func NewQuerier(ring *prf.KeyRing, params Params) (*Querier, error) {
	if ring == nil {
		return nil, errors.New("sies: nil key ring")
	}
	if ring.N() != params.N() {
		return nil, fmt.Errorf("sies: key ring covers %d sources, params expect %d", ring.N(), params.N())
	}
	return newQuerier(params, ring), nil
}

func newQuerier(params Params, ring *prf.KeyRing) *Querier {
	return &Querier{params: params, ring: ring, all: allIDs(ring.N())}
}

// Source is a leaf sensor holding (K, kᵢ, p). It holds reusable HMAC
// derivation engines for both long-term keys (the key schedules are paid
// once, at first use) and caches the fully-prepared encryption state of the
// most recent epoch — K_t and k_{i,t} reduced exactly once, ss_{i,t}
// alongside — mirroring that a source derives its epoch material once
// regardless of how many readings it encrypts.
type Source struct {
	id     int
	params Params
	global []byte // K
	ki     []byte // k_i

	kd  *prf.Deriver // pads for K, built on first use
	kid *prf.Deriver // pads for k_i

	cachedEpoch prf.Epoch
	haveCache   bool
	encState    homomorphic.EncryptState // (K_t, k_{i,t}) reduced once
	cachedSS    secretshare.Share        // ss_{i,t}
}

// ID returns the source's identifier (its index in the key ring).
func (s *Source) ID() int { return s.id }

// Params returns the protocol parameters.
func (s *Source) Params() Params { return s.params }

// epochState derives and caches the per-epoch encryption material: K_t and
// k_{i,t} through the reusable HMAC engines, reduced into the field exactly
// once inside an EncryptState, plus the secret share ss_{i,t}. Repeated
// encryptions within one epoch reuse it allocation-free.
func (s *Source) epochState(t prf.Epoch) (*homomorphic.EncryptState, secretshare.Share, error) {
	if !s.haveCache || s.cachedEpoch != t {
		if s.kd == nil {
			s.kd = prf.NewDeriver(s.global)
			s.kid = prf.NewDeriver(s.ki)
		}
		ktRaw := s.kd.Epoch256(t)
		Kt := s.params.Field().Reduce(uint256.MustSetBytes(ktRaw[:]))
		if Kt.IsZero() {
			// Probability 2^-256; substituting 1 keeps the protocol total.
			Kt = uint256.One
		}
		kitRaw := s.kid.Epoch256(t)
		es, err := s.params.scheme.NewEncryptState(Kt, uint256.MustSetBytes(kitRaw[:]))
		if err != nil {
			return nil, secretshare.Share{}, fmt.Errorf("sies: source %d: %w", s.id, err)
		}
		s.encState = es
		s.cachedSS = secretshare.Share(s.kid.Epoch1(t))
		s.cachedEpoch, s.haveCache = t, true
	}
	return &s.encState, s.cachedSS, nil
}

// Encrypt runs the initialization phase: it derives the epoch keys and the
// secret share, packs the plaintext and returns PSR_{i,t}. A source whose
// reading fails the query predicate calls Encrypt with v = 0 (paper §III-B).
func (s *Source) Encrypt(t prf.Epoch, v uint64) (PSR, error) {
	es, ss, err := s.epochState(t)
	if err != nil {
		return PSR{}, err
	}
	return s.encryptPrepared(v, es, ss)
}

// EncryptBatch encrypts several readings for one epoch, deriving the epoch
// quantities (K_t, k_{i,t}, ss_{i,t}) once and reusing them across the batch,
// so the three HMACs are paid once instead of len(vs) times.
//
// Every returned PSR is blinded by the same one-time key k_{i,t}, so the
// confidentiality argument of §III-D covers the batch only if a single
// element per epoch reaches untrusted parties — releasing two PSRs with
// different values reveals K_t·(v_a−v_b). The intended uses are fan-out of
// one reading to redundant parents/duplicate sinks (where every element
// carries the same v) and source-throughput benchmarking.
func (s *Source) EncryptBatch(t prf.Epoch, vs []uint64) ([]PSR, error) {
	if len(vs) == 0 {
		return nil, nil
	}
	es, ss, err := s.epochState(t)
	if err != nil {
		return nil, err
	}
	out := make([]PSR, len(vs))
	for j, v := range vs {
		psr, err := s.encryptPrepared(v, es, ss)
		if err != nil {
			return nil, err
		}
		out[j] = psr
	}
	return out, nil
}

// encryptPrepared packs and encrypts one value under the prepared epoch
// state, the shared tail of Encrypt and EncryptBatch. The keys inside es are
// already reduced, so this is one pack, one field mul and one field add.
func (s *Source) encryptPrepared(v uint64, es *homomorphic.EncryptState, ss secretshare.Share) (PSR, error) {
	m, err := s.params.layout.Pack(v, ss)
	if err != nil {
		return PSR{}, fmt.Errorf("sies: source %d: %w", s.id, err)
	}
	c, err := es.Encrypt(m)
	if err != nil {
		return PSR{}, fmt.Errorf("sies: source %d: %w", s.id, err)
	}
	return PSR{C: c}, nil
}

// Aggregator performs the merging phase. It holds only the public modulus —
// compromising an aggregator reveals no key material (paper §IV-B).
type Aggregator struct {
	field *uint256.Field
}

// NewAggregator returns an aggregator for the deployment's field.
func NewAggregator(f *uint256.Field) *Aggregator { return &Aggregator{field: f} }

// Merge folds the children's PSRs into one: Σ PSRᵢ mod p. It runs the
// lazy-reduction kernel — plain 512-bit carry-chain adds with one modular
// reduction at the end — which is exact because the PSRs are reduced and
// Σ of n < 2^256 such terms fits a Word512.
func (a *Aggregator) Merge(children ...PSR) PSR {
	var acc uint256.Accumulator
	for i := range children {
		acc.Add(children[i].C)
	}
	return PSR{C: acc.Sum(a.field)}
}

// MergeInto adds one child PSR into a running accumulator, the streaming
// form used by the network engine. Each step reduces; for long chains the
// MergeState form is cheaper.
func (a *Aggregator) MergeInto(acc, child PSR) PSR {
	return PSR{C: a.field.Add(acc.C, child.C)}
}

// MergeState streams child PSRs into a lazily-reduced 512-bit accumulator:
// Add per child, one reduction in Final. The zero-cost streaming counterpart
// of Merge for callers that do not hold their children in a slice.
type MergeState struct {
	field *uint256.Field
	acc   uint256.Accumulator
	n     int
}

// NewMerge starts an empty streaming merge.
func (a *Aggregator) NewMerge() MergeState { return MergeState{field: a.field} }

// Add folds one child PSR into the running total (no reduction).
func (m *MergeState) Add(p PSR) {
	m.acc.Add(p.C)
	m.n++
}

// Count returns how many PSRs have been folded in.
func (m *MergeState) Count() int { return m.n }

// Final performs the single deferred reduction and returns the merged PSR.
func (m *MergeState) Final() PSR { return PSR{C: m.acc.Sum(m.field)} }

// Result is a verified evaluation outcome.
type Result struct {
	Epoch prf.Epoch
	Sum   uint64 // exact SUM over the contributing sources
	N     int    // number of contributing sources
}

// Querier holds the full key ring and runs the evaluation phase.
type Querier struct {
	params Params
	ring   *prf.KeyRing
	all    []int // [0, N): the full contributor set, read-only

	derivOnce sync.Once
	deriv     *prf.RingDerivers
}

// derivers returns the reusable per-key HMAC engines, building them (2N+2
// key schedules) on first use. Every epoch derivation afterwards skips the
// key schedule and allocates nothing.
func (q *Querier) derivers() *prf.RingDerivers {
	q.derivOnce.Do(func() { q.deriv = prf.NewRingDerivers(q.ring) })
	return q.deriv
}

// Params returns the protocol parameters.
func (q *Querier) Params() Params { return q.params }

// KeyRing exposes the long-term keys; needed by provisioning tools and by
// the μTesla broadcaster, never by aggregators.
func (q *Querier) KeyRing() *prf.KeyRing { return q.ring }

// Evaluate decrypts and verifies the final PSR of epoch t, assuming all N
// sources contributed.
func (q *Querier) Evaluate(t prf.Epoch, final PSR) (Result, error) {
	return q.EvaluateSubset(t, final, nil)
}

// EvaluateSubset decrypts and verifies a final PSR produced by only the
// given contributor ids (nil means all sources). This implements the node-
// failure handling of §IV-B: after a reported (and manually checked) source
// failure, the querier sums keys and shares over the surviving subset only.
func (q *Querier) EvaluateSubset(t prf.Epoch, final PSR, contributors []int) (Result, error) {
	es, err := q.PrepareEpoch(t, contributors)
	if err != nil {
		return Result{}, err
	}
	return es.Evaluate(final)
}

// EpochState holds the querier-side per-epoch precomputation: K_t⁻¹, the
// blinding-key sum and the expected secret for a fixed contributor set.
// Preparing it once amortises the Θ(N) key derivations when a querier
// evaluates several candidate PSRs for the same epoch (duplicate sinks,
// retransmissions, or forensic re-checks); each Evaluate is then a constant
// number of field operations.
type EpochState struct {
	querier  *Querier
	epoch    prf.Epoch
	n        int
	kInv     uint256.Int // K_t⁻¹
	kSum     uint256.Int // Σ k_{i,t} mod p
	expected uint256.Int // Σ ss_{i,t} (plain 256-bit sum)
}

// PrepareEpoch derives every per-epoch quantity for the given contributor
// set (nil means all sources), sequentially on the calling goroutine. The
// Schedule type layers a worker pool, an LRU cache and a prefetcher on top
// of the same derivation.
func (q *Querier) PrepareEpoch(t prf.Epoch, contributors []int) (*EpochState, error) {
	ids, err := CheckContributors(q.ring.N(), contributors)
	if err != nil {
		return nil, err
	}
	if ids == nil {
		ids = q.all
	}
	return q.prepareParallel(t, ids, 1)
}

// CheckContributors validates a contributor list for a deployment of n
// sources at the API boundary: every id must be unique and in [0, n). It
// returns a sorted copy (nil stays nil, meaning all sources); any violation
// is an error wrapping ErrBadContributors. The wire-decode path
// (DecodeContributorsBounded) additionally demands the canonical sorted
// form; here order is tolerated because in-process callers assemble lists
// from maps and reports.
func CheckContributors(n int, ids []int) ([]int, error) {
	if ids == nil {
		return nil, nil
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("%w: no contributing sources", ErrBadContributors)
	}
	out := append([]int(nil), ids...)
	sort.Ints(out)
	if out[0] < 0 {
		return nil, fmt.Errorf("%w: negative source id %d", ErrBadContributors, out[0])
	}
	if out[len(out)-1] >= n {
		return nil, fmt.Errorf("%w: source id %d out of range [0,%d)", ErrBadContributors, out[len(out)-1], n)
	}
	for i := 1; i < len(out); i++ {
		if out[i] == out[i-1] {
			return nil, fmt.Errorf("%w: duplicate source id %d", ErrBadContributors, out[i])
		}
	}
	return out, nil
}

// Evaluate decrypts and verifies one final PSR against the prepared epoch.
func (es *EpochState) Evaluate(final PSR) (Result, error) {
	q := es.querier
	m, err := q.params.scheme.DecryptWithInverse(final.C, es.kInv, es.kSum)
	if err != nil {
		return Result{}, err
	}
	sum, secret, err := q.params.layout.Unpack(m)
	if err != nil {
		// An overflowing value field implies tampering or misuse, but the
		// secret cannot be checked, so report overflow distinctly.
		return Result{}, fmt.Errorf("%w: %v", ErrResultOverflow, err)
	}
	if secret != es.expected {
		return Result{}, fmt.Errorf("%w (epoch %d, %d contributors)", ErrIntegrity, es.epoch, es.n)
	}
	return Result{Epoch: es.epoch, Sum: sum, N: es.n}, nil
}

func allIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// NormalizeIDs sorts a contributor/failed-id list and removes duplicates —
// the canonical form used in failure reports, where a reconnecting child may
// re-send overlapping subtree failure lists.
func NormalizeIDs(ids []int) []int {
	if len(ids) == 0 {
		return ids
	}
	out := append([]int(nil), ids...)
	sort.Ints(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// Subtract returns [0, n) minus the failed list (any order, duplicates
// tolerated): the contributor set the querier verifies a partial SUM against
// after reported source failures (§IV-B).
func Subtract(n int, failed []int) []int {
	failedSet := make(map[int]bool, len(failed))
	for _, id := range failed {
		failedSet[id] = true
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if !failedSet[i] {
			out = append(out, i)
		}
	}
	return out
}

// EncodeContributors serialises a contributor-id list for transport in
// failure reports (sorted ids, varint-free fixed encoding).
func EncodeContributors(ids []int) []byte {
	buf := make([]byte, 4+4*len(ids))
	binary.BigEndian.PutUint32(buf, uint32(len(ids)))
	for i, id := range ids {
		binary.BigEndian.PutUint32(buf[4+4*i:], uint32(id))
	}
	return buf
}

// DecodeContributors parses a contributor-id list.
//
// All size arithmetic is done in int: the announced count is first bounded by
// the bytes actually present, so a hostile header (e.g. n = 1<<30 on a 4-byte
// frame, whose 4*n wraps to 0 in uint32) is rejected before any allocation
// instead of reserving gigabytes.
func DecodeContributors(buf []byte) ([]int, error) {
	return DecodeContributorsBounded(buf, 0)
}

// DecodeContributorsBounded parses a contributor-id list from an untrusted
// peer. Beyond the overflow-safe length check it requires the canonical wire
// form every encoder in this repository produces — strictly increasing ids —
// so a duplicated id can never double-count a blinding key or corrupt a
// coverage set, and (when maxID > 0) rejects ids outside [0, maxID).
func DecodeContributorsBounded(buf []byte, maxID int) ([]int, error) {
	if len(buf) < 4 {
		return nil, errors.New("sies: short contributor list")
	}
	n := int(binary.BigEndian.Uint32(buf))
	if n > (len(buf)-4)/4 || len(buf)-4 != 4*n {
		return nil, errors.New("sies: contributor list length mismatch")
	}
	ids := make([]int, n)
	prev := -1
	for i := range ids {
		raw := binary.BigEndian.Uint32(buf[4+4*i:])
		if uint64(raw) > uint64(maxInt) {
			return nil, fmt.Errorf("sies: contributor id %d overflows int", raw)
		}
		id := int(raw)
		if maxID > 0 && id >= maxID {
			return nil, fmt.Errorf("sies: contributor id %d out of range [0,%d)", id, maxID)
		}
		if maxID > 0 && id <= prev {
			return nil, fmt.Errorf("sies: contributor list not canonical at id %d (duplicate or unsorted)", id)
		}
		ids[i] = id
		prev = id
	}
	return ids, nil
}

// maxInt is the largest value representable in this platform's int.
const maxInt = int(^uint(0) >> 1)
