package pdcs

import (
	"math"
	"time"

	"hipo/internal/discretize"
	"hipo/internal/geom"
	"hipo/internal/hipotrace"
	"hipo/internal/model"
	"hipo/internal/schedule"
	"hipo/internal/visindex"
)

// PosKey is the exact bit pattern of a candidate position, the key of the
// memoized sweeps. Positions survive dedup with their first-occurrence
// bits, so equal geometry always rebuilds the same key.
type PosKey struct{ X, Y uint64 }

// keyOf returns the memo key of position p.
func keyOf(p geom.Vec) PosKey { return PosKey{math.Float64bits(p.X), math.Float64bits(p.Y)} }

// Pos returns the position the key was built from.
func (k PosKey) Pos() geom.Vec {
	return geom.Vec{X: math.Float64frombits(k.X), Y: math.Float64frombits(k.Y)}
}

// Memo carries one charger type's pipeline caches across the extractions
// of an evolving scenario (internal/incremental). Its owner invalidates
// entries when the scenario changes; Extract fills every gap, serves the
// rest, and drops the sweeps no current position references. A position's
// sweep is a pure function of the geometry within d_max of it, and a task
// workload of the geometry within 2·d_max of its device, so an extraction
// served from a correctly invalidated memo is bit-for-bit the cold one.
type Memo struct {
	// Tasks[i] is discretize task i's position workload as generated (not
	// deduplicated); nil marks it for regeneration. It holds one entry per
	// device.
	Tasks [][]geom.Vec
	// Sweeps maps a position to its Algorithm 1 output. Every Covers list
	// is owned by the memo, so the owner may rewrite device indices in place.
	Sweeps map[PosKey][]Candidate

	// Cumulative work counters: task workloads generated and reused,
	// positions swept and served from Sweeps.
	TasksRecomputed, TasksReused, SweepsComputed, SweepsReused int
}

// NewMemo returns an empty memo for a scenario with the given device count.
func NewMemo(devices int) *Memo {
	return &Memo{Tasks: make([][]geom.Vec, devices), Sweeps: make(map[PosKey][]Candidate)}
}

// Extract is pdcs.Extract served from and refilled into the memo.
func (m *Memo) Extract(sc *model.Scenario, q int, cfg Config) []Candidate {
	kept, _ := pipeline(visindex.Ensure(sc), q, nil, cfg, m, nil, nil)
	return kept
}

// sweepChunk is the default sweep block: contiguous 256-position chunks,
// each with one output buffer, index scratch, and Covers arena.
const sweepChunk = 256

// pipeline is the one candidate-extraction pipeline for charger type q,
// behind Extract, Memo.Extract and ExtractDistributed:
//
//	task positions in device order → first-wins dedup → usefulness filter →
//	Algorithm 1 sweep per position → stream reducer → FilterDominated →
//	detach survivors
//
// sc must already carry its visibility index (visindex.Ensure); gen,
// when nil, is built here. It has two seams:
//
//   - memo, nil for a cold solve, serves task workloads and per-position
//     sweeps from an incremental session's caches and absorbs whatever this
//     run had to compute; only the memo misses are swept, in 256-position
//     chunks.
//   - order chooses the sweep blocks of a memo-less run. With order nil the
//     positions are swept in 256-position chunks. Otherwise order is a
//     hand-out order over the device tasks (Algorithm 5's LPT): task
//     generation follows it, and every task's contiguous run of positions
//     is one sweep block handed out in the same order. The returned
//     per-task durations, measured with clock (zero when clock is nil), are
//     each task's generation plus the sweep of the positions it produced
//     first.
//
// Blocks are reduced in position order, so the output is bit-for-bit the
// same for every seam setting and worker count.
//
//hipo:hotpath
func pipeline(sc *model.Scenario, q int, gen *discretize.Generator, cfg Config, memo *Memo, order []int, clock func() time.Time) ([]Candidate, []time.Duration) {
	workers := cfg.workers()
	tr := cfg.Tracer
	label := typeLabel(q)
	var dur []time.Duration
	var timed func(i int, run func())
	if order != nil {
		dur = make([]time.Duration, len(sc.Devices))
		timed = func(i int, run func()) {
			if clock == nil {
				run()
				return
			}
			start := clock()
			run()
			dur[i] += clock().Sub(start)
		}
	}

	endDisc := tr.StartStage(hipotrace.StageDiscretize, label)
	if gen == nil {
		gen = discretize.NewGenerator(sc, q, cfg.discretize(workers))
	}
	var cached [][]geom.Vec
	if memo != nil {
		cached = memo.Tasks
		for _, t := range cached {
			if t == nil {
				memo.TasksRecomputed++
			} else {
				memo.TasksReused++
			}
		}
	}
	tasks := gen.Workloads(cached, workers, order, timed)
	positions, ends := gen.Assemble(tasks)
	if memo == nil {
		discretize.ReleaseWorkloads(tasks)
	}
	endDisc()
	tr.Add(hipotrace.CtrCandidatePositions, int64(len(positions)))

	endSweep := tr.StartStage(hipotrace.StagePDCS, label)
	defer endSweep()
	cache := newEligibleCache(sc, q, cfg.Eps1, tr)
	tr.Add(hipotrace.CtrPowerLevels, cache.powerLevels)

	var stream [][]Candidate
	switch {
	case memo != nil:
		stream = memo.sweep(cache, positions, workers)
	case order != nil:
		stream = cache.sweepBlocks(positions, append([]int{0}, ends...), order, workers, nil, timed)
	default:
		stream = cache.sweepBlocks(positions, chunkBounds(len(positions)), nil, workers, nil, nil)
	}

	if cfg.SkipDominanceFilter {
		var cands []Candidate
		for _, cs := range stream {
			cands = append(cands, cs...)
		}
		tr.Add(hipotrace.CtrCandidatesRaw, int64(len(cands)))
		tr.Add(hipotrace.CtrCandidatesKept, int64(len(cands)))
		detachCovers(cands)
		return cands, dur
	}
	kept, raw := reduce(stream, len(sc.Devices))
	tr.Add(hipotrace.CtrCandidatesRaw, int64(raw))
	tr.Add(hipotrace.CtrCandidatesKept, int64(len(kept)))
	return kept, dur
}

// sweep returns the Algorithm 1 output of every position, in position
// order: memoized sweeps are served as they stand, and the misses are swept
// in 256-position chunks and stored. Entries no current position references
// are then dropped, bounding the memo at the live position count.
func (m *Memo) sweep(c *eligibleCache, positions []geom.Vec, workers int) [][]Candidate {
	perPos := make([][]Candidate, len(positions))
	var miss []int
	var missPts []geom.Vec
	for i, p := range positions {
		if cs, ok := m.Sweeps[keyOf(p)]; ok {
			perPos[i] = cs
		} else {
			miss = append(miss, i)
			missPts = append(missPts, p)
		}
	}
	fresh := make([][]Candidate, len(missPts))
	c.sweepBlocks(missPts, chunkBounds(len(missPts)), nil, workers, fresh, nil)
	for k, i := range miss {
		perPos[i] = fresh[k]
		m.Sweeps[keyOf(positions[i])] = fresh[k]
	}
	m.SweepsComputed += len(miss)
	m.SweepsReused += len(positions) - len(miss)
	if len(m.Sweeps) > len(positions) {
		live := make(map[PosKey]bool, len(positions))
		for _, p := range positions {
			live[keyOf(p)] = true
		}
		for k := range m.Sweeps {
			if !live[k] {
				delete(m.Sweeps, k)
			}
		}
	}
	return perPos
}

// chunkBounds cuts n positions into sweepChunk-sized blocks: block b is
// [bounds[b], bounds[b+1]).
func chunkBounds(n int) []int {
	var bounds []int
	for lo := 0; lo < n; lo += sweepChunk {
		bounds = append(bounds, lo)
	}
	return append(bounds, n)
}

// sweepBlocks runs the Algorithm 1 sweep over positions block by block —
// block b covers positions[bounds[b]:bounds[b+1]] — on workers goroutines
// handed out in order (ascending when nil), and returns every block's
// candidates in position order, their Covers carved from one pooled arena
// per block. perPos, when non-nil, also receives every position's output
// as a detached copy. timed, when non-nil, runs each block.
func (c *eligibleCache) sweepBlocks(positions []geom.Vec, bounds, order []int, workers int, perPos [][]Candidate, timed func(b int, run func())) [][]Candidate {
	return schedule.RunPoolOrdered(len(bounds)-1, workers, order, func(b int) []Candidate {
		if timed == nil {
			return c.sweepBlock(positions, bounds[b], bounds[b+1], perPos)
		}
		var buf []Candidate
		timed(b, func() { buf = c.sweepBlock(positions, bounds[b], bounds[b+1], perPos) })
		return buf
	})
}

// sweepBlock sweeps positions[lo:hi] for sweepBlocks.
func (c *eligibleCache) sweepBlock(positions []geom.Vec, lo, hi int, perPos [][]Candidate) []Candidate {
	ar, reused := c.getArena()
	if reused {
		c.tracer.Add(hipotrace.CtrPoolReuse, 1)
	}
	scr := sweepScratch{ar: ar}
	var buf []Candidate
	for i := lo; i < hi; i++ {
		start := len(buf)
		buf = sweepPointAppend(c.sc, c.q, positions[i], c, &scr, buf)
		if perPos != nil {
			perPos[i] = append([]Candidate(nil), buf[start:]...)
			detachCovers(perPos[i])
		}
	}
	c.putArena(ar)
	return buf
}

// reduce is the pipeline's tail: the candidate stream, block by block in
// order, through the streaming reducer and the exact global dominance
// filter. Survivors are detached from sweep arenas and caches. It also
// returns the raw stream length.
func reduce(blocks [][]Candidate, no int) ([]Candidate, int) {
	red := newStreamReducer(no)
	for _, cs := range blocks {
		for i := range cs {
			red.add(cs[i])
		}
	}
	kept := FilterDominated(red.final(), no)
	detachCovers(kept)
	return kept, red.raw
}
