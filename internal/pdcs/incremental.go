package pdcs

import (
	"hipo/internal/geom"
	"hipo/internal/model"
)

// Sweeper exposes the per-position Algorithm 1 sweep on its own: one
// eligibility cache — device grid, viewpoint tiling, pooled arenas — shared
// across calls, with per-position outputs that are safe to keep.
//
// Contract: a position's sweep output is a pure function of (scenario
// geometry within DMax of the position, charger type, eps1). SweepPositions
// therefore returns, for any subset of positions, exactly the candidates
// Extract would produce for those positions, bit for bit — the accelerators
// only prune provably ineligible devices and are re-checked by the exact
// predicates. The tests in incremental_test.go pin this.
type Sweeper struct {
	cfg   Config
	cache *eligibleCache
}

// NewSweeper builds a sweeper for charger type q. The scenario should
// already carry a visibility index (visindex.Ensure); one is attached on a
// clone otherwise.
func NewSweeper(sc *model.Scenario, q int, cfg Config) *Sweeper {
	sc = cfg.ensureVisibility(sc)
	return &Sweeper{cfg: cfg, cache: newEligibleCache(sc, q, cfg.Eps1, cfg.Tracer)}
}

// SweepPositions sweeps the given positions with the configured worker count
// and returns one candidate list per position, in position order. Every
// returned candidate owns its Covers privately (detached from the sweep
// arenas), so results may be cached and later re-fed to ReduceCandidates.
func (s *Sweeper) SweepPositions(positions []geom.Vec) [][]Candidate {
	perPos := make([][]Candidate, len(positions))
	s.cache.sweepBlocks(positions, chunkBounds(len(positions)), nil, s.cfg.workers(), perPos, nil)
	return perPos
}

// ReduceCandidates runs Extract's reduction tail — the streaming reducer in
// position order, then the exact global dominance filter — over
// per-position candidate lists. Feeding the per-position outputs of
// SweepPositions in Extract's position order reproduces Extract's
// survivors bit for bit. The returned candidates own their Covers
// privately, so callers may mutate the inputs afterwards without aliasing
// the result.
func ReduceCandidates(perPos [][]Candidate, no int) []Candidate {
	kept, _ := reduce(perPos, no)
	return kept
}
