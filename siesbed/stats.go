package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"time"

	"github.com/sies/sies/internal/prf"
)

// maxReading bounds every synthetic sensor reading, so the exact SUM of the
// largest workload stays far inside the 32-bit value field of the default
// plaintext layout.
const maxReading = 1000

// splitmix64 is the SplitMix64 finaliser: a cheap, well-mixed hash that turns
// (seed, epoch, source) into a reading without any generator state, so the
// expected SUM of an epoch can be recomputed anywhere from the seed alone.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// reading is source id's sensor value at epoch t under the workload seed.
func reading(seed int64, t prf.Epoch, id int) uint64 {
	h := splitmix64(uint64(seed) ^ splitmix64(uint64(t)<<20^uint64(id)))
	return h % maxReading
}

// expectedSum is the exact SUM the querier must answer for epoch t when
// every id in ids contributes.
func expectedSum(seed int64, t prf.Epoch, ids []int) uint64 {
	var s uint64
	for _, id := range ids {
		s += reading(seed, t, id)
	}
	return s
}

// seededKey derives a 32-byte long-term key from the seed; index -1 is the
// querier's global key K, index i is source i's key k_i.
func seededKey(seed int64, index int) []byte {
	var msg [8 + 8 + 8]byte
	copy(msg[:8], "siesbed1")
	binary.BigEndian.PutUint64(msg[8:], uint64(seed))
	binary.BigEndian.PutUint64(msg[16:], uint64(int64(index)))
	k := sha256.Sum256(msg[:])
	return k[:]
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks; NaN for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	h := q * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// spread is the interquartile distance of values as a share of their
// median.
func spread(values []float64) float64 {
	return (percentile(values, 0.75) - percentile(values, 0.25)) / percentile(values, 0.5)
}

// paceSchedule is the open-loop send plan of the paced phase: epoch k of the
// phase is due at start + k/rate whatever happened to the epochs before it,
// so a stall delays every later epoch's latency rather than its send time.
type paceSchedule struct {
	start time.Time
	rate  float64 // epochs per second
}

// due is the time epoch k of the phase should be sent.
func (p paceSchedule) due(k int) time.Time {
	return p.start.Add(time.Duration(float64(k) * float64(time.Second) / p.rate))
}

// lateness is how far behind schedule a send of epoch k at sent ran; zero
// when it was on time.
func (p paceSchedule) lateness(k int, sent time.Time) time.Duration {
	return max(0, sent.Sub(p.due(k)))
}
