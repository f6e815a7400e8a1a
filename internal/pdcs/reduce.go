package pdcs

import (
	"math"
	"sort"
)

// streamReducer discards, while candidates stream out of the chunked sweep,
// candidates that FilterDominated provably discards — so the overhauled
// extraction never holds the full raw candidate set (hundreds of thousands
// at benchmark scale) through to the global dominance filter. The final
// output after running FilterDominated over the survivors is bit-for-bit
// identical to running it over the whole raw stream.
//
// Why dropping is safe. FilterDominated processes candidates in stable
// order of decreasing total power (ties resolve to stream order) and drops
// x when an already-kept k with total ≥ total(x) − 1e-15 covers a superset
// of x's devices with per-device power ≥ x's − 1e-15. The reducer uses two
// strictly stronger, zero-slack rules:
//
//  1. Exact duplicate: some earlier y has the same charger type and a
//     bitwise-identical Covers list. If the filter keeps y, then y (sorted
//     before x: equal totals, earlier stream position) dominates x, so x is
//     dropped. If the filter drops y via some kept k, then k's powers are
//     ≥ y's − 1e-15 = x's − 1e-15, k's total is ≥ total(y) − 1e-15 =
//     total(x) − 1e-15 (so x's scan reaches k before its early break), and
//     k sorts before y and hence before x — so k drops x too.
//
//  2. Strict domination: some y (either stream direction) with
//     total(y) > total(x), or total(y) == total(x) and an earlier stream
//     position, covers a superset of x's devices with per-device power ≥
//     x's, compared exactly. y sorts strictly before x. If the filter keeps
//     y it drops x directly; if it drops y via kept k, the same chaining as
//     above gives k's powers ≥ x's − 1e-15 and total(k) ≥ total(x) − 1e-15
//     with k sorted before x, so k drops x. The single chaining step is
//     what keeps the 1e-15 slack from compounding — the reducer's own
//     comparisons carry no slack at all.
//
// Removing such candidates from the filter's input changes neither which
// remaining candidates are kept (kept candidates never consult dropped
// ones) nor their order, so the survivors' filtered output is identical.
type streamReducer struct {
	words  int
	raw    int // stream length so far
	thresh int // ents length that triggers the next reduce pass
	ents   []reduceEnt
	seen   map[uint64][]Candidate

	// reduce-pass scratch, reused across passes.
	bits    []uint64
	byDev   [][]int32
	keptIdx []int32
}

type reduceEnt struct {
	cand  Candidate
	total float64
	seq   int32
}

// reduceTrigger is the entry count that schedules a dominance pass; between
// passes the reducer only performs O(1) duplicate probes per candidate.
const reduceTrigger = 8192

func newStreamReducer(no int) *streamReducer {
	return &streamReducer{
		words:  (no + 63) / 64,
		thresh: reduceTrigger,
		seen:   make(map[uint64][]Candidate),
		byDev:  make([][]int32, no),
	}
}

// add feeds the next candidate of the raw stream (in sweep output order).
func (r *streamReducer) add(c Candidate) {
	seq := int32(r.raw)
	r.raw++
	h := covHash(&c)
	for i := range r.seen[h] {
		if sameCoverAndType(&r.seen[h][i], &c) {
			return // rule 1: an identical earlier candidate wins the tie
		}
	}
	r.seen[h] = append(r.seen[h], c)
	r.ents = append(r.ents, reduceEnt{cand: c, total: c.TotalPower(), seq: seq})
	if len(r.ents) >= r.thresh {
		r.reduce()
		r.thresh = max(reduceTrigger, 2*len(r.ents))
	}
}

// reduce runs one zero-slack dominance pass over the current entries.
//
//hipo:order-invariant the seq tiebreak makes the dominance sort total, so the kept set is identical for every arrival interleaving of the same candidate stream
func (r *streamReducer) reduce() {
	// Exactly FilterDominated's stable processing order, made total by the
	// explicit stream-position tiebreak.
	sort.Slice(r.ents, func(a, b int) bool {
		//lint:ignore floatcmp the reducer's safety proof is against FilterDominated's exact stable sort order, so the tiebreak must engage on exact total equality — a tolerance here would be unsound
		if r.ents[a].total != r.ents[b].total {
			return r.ents[a].total > r.ents[b].total
		}
		return r.ents[a].seq < r.ents[b].seq
	})
	w := r.words
	if need := len(r.ents) * w; cap(r.bits) < need {
		r.bits = make([]uint64, need)
	} else {
		r.bits = r.bits[:need]
		clear(r.bits)
	}
	for i := range r.ents {
		for _, dp := range r.ents[i].cand.Covers {
			r.bits[i*w+dp.Device/64] |= 1 << (uint(dp.Device) % 64)
		}
	}
	for d := range r.byDev {
		r.byDev[d] = r.byDev[d][:0]
	}
	r.keptIdx = r.keptIdx[:0]
	for i := range r.ents {
		x := &r.ents[i]
		if len(x.cand.Covers) == 0 {
			r.keptIdx = append(r.keptIdx, int32(i))
			continue
		}
		bx := r.bits[i*w : i*w+w]
		dominated := false
		// Any dominator covers all of x's devices, in particular the first
		// one — probing that device's inverted list touches a handful of
		// survivors instead of the whole kept set.
		for _, k := range r.byDev[x.cand.Covers[0].Device] {
			y := &r.ents[k]
			if y.cand.S.Type == x.cand.S.Type &&
				bitsSubset(bx, r.bits[int(k)*w:int(k)*w+w]) &&
				covered(x.cand.Covers, y.cand.Covers, 0) {
				dominated = true // rule 2: y sorted strictly before x
				break
			}
		}
		if dominated {
			continue
		}
		r.keptIdx = append(r.keptIdx, int32(i))
		for _, dp := range x.cand.Covers {
			r.byDev[dp.Device] = append(r.byDev[dp.Device], int32(i))
		}
	}
	out := r.ents[:0] // keptIdx ascends, so in-place compaction is safe
	for _, i := range r.keptIdx {
		out = append(out, r.ents[i])
	}
	r.ents = out
}

// final returns the surviving candidates in original stream order, ready
// for the exact FilterDominated pass.
func (r *streamReducer) final() []Candidate {
	sort.Slice(r.ents, func(a, b int) bool { return r.ents[a].seq < r.ents[b].seq })
	out := make([]Candidate, len(r.ents))
	for i := range r.ents {
		out[i] = r.ents[i].cand
	}
	return out
}

// sameCoverAndType reports whether two candidates have the same charger
// type and bitwise-identical Covers.
func sameCoverAndType(a, b *Candidate) bool {
	if a.S.Type != b.S.Type || len(a.Covers) != len(b.Covers) {
		return false
	}
	for i := range a.Covers {
		if a.Covers[i].Device != b.Covers[i].Device ||
			math.Float64bits(a.Covers[i].Power) != math.Float64bits(b.Covers[i].Power) {
			return false
		}
	}
	return true
}

// covHash is an FNV-1a hash of a candidate's charger type and Covers,
// keying the exact-duplicate probe of rule 1.
func covHash(c *Candidate) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	mix(uint64(c.S.Type))
	for _, dp := range c.Covers {
		mix(uint64(dp.Device))
		mix(math.Float64bits(dp.Power))
	}
	return h
}
