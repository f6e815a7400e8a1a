// The bit-identity test wall gating the extraction overhaul: every corpus
// family is swept through the preserved seed pipeline and the overhauled
// parallel-pruned-pooled one, and the outputs must agree bit for bit.
//
// This file is an external test package so it can import internal/corpus,
// which depends on the public hipo API and hence, transitively, on pdcs
// itself — legal only from a _test package.
package pdcs_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"hipo/internal/corpus"
	"hipo/internal/expt"
	"hipo/internal/model"
	"hipo/internal/oracle"
	"hipo/internal/pdcs"
	"hipo/internal/power"
	"hipo/internal/visindex"
)

// wallEps is the public ε the wall solves at; Eps1ForEps maps it to the
// extraction's ε₁ exactly like the solver does.
const wallEps = 0.3

// reference runs the pre-overhaul pipeline preserved in internal/oracle
// (full device scans, per-ray grid walks, fresh allocations) on a fresh
// clone with its own visibility index.
func reference(sc *model.Scenario, eps1 float64) [][]pdcs.Candidate {
	return oracle.ExtractAll(visindex.Ensure(sc.Clone()), eps1, nil)
}

// extractWith runs ExtractAll on a fresh clone with its own visibility
// index, so no memoized state leaks between arms.
func extractWith(sc *model.Scenario, cfg pdcs.Config) [][]pdcs.Candidate {
	return pdcs.ExtractAll(visindex.Ensure(sc.Clone()), cfg)
}

// candidatesBitIdentical compares two per-type candidate sets bit for bit:
// same order, same strategies, same coverage lists, Float64bits-equal
// floats throughout.
func candidatesBitIdentical(a, b [][]pdcs.Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for q := range a {
		if len(a[q]) != len(b[q]) {
			return false
		}
		for i := range a[q] {
			x, y := a[q][i], b[q][i]
			if math.Float64bits(x.S.Pos.X) != math.Float64bits(y.S.Pos.X) ||
				math.Float64bits(x.S.Pos.Y) != math.Float64bits(y.S.Pos.Y) ||
				math.Float64bits(x.S.Orient) != math.Float64bits(y.S.Orient) ||
				x.S.Type != y.S.Type || len(x.Covers) != len(y.Covers) {
				return false
			}
			for m := range x.Covers {
				if x.Covers[m].Device != y.Covers[m].Device ||
					math.Float64bits(x.Covers[m].Power) != math.Float64bits(y.Covers[m].Power) {
					return false
				}
			}
		}
	}
	return true
}

// TestBitIdentityWall sweeps two scenarios from every corpus family through
// the seed pipeline and the overhauled one (at one and four workers) and
// requires ScenarioHash-keyed bit-identical candidate sets.
func TestBitIdentityWall(t *testing.T) {
	eps1 := power.Eps1ForEps(wallEps)
	const perFamily = 2
	seen := map[string]bool{}
	for _, fam := range corpus.Names() {
		for i := 0; i < perFamily; i++ {
			t.Run(fmt.Sprintf("%s/%d", fam, i), func(t *testing.T) {
				sc, err := corpus.BuildModel(7, fam, i)
				if err != nil {
					t.Fatal(err)
				}
				hash, err := corpus.ToPublic(sc).ScenarioHash()
				if err != nil {
					t.Fatal(err)
				}
				seen[hash] = true
				ref := reference(sc, eps1)
				for _, w := range []int{1, 4} {
					got := extractWith(sc, pdcs.Config{Eps1: eps1, Workers: w})
					if !candidatesBitIdentical(ref, got) {
						t.Fatalf("scenario %s: overhauled extraction (workers=%d) diverged from seed pipeline", hash, w)
					}
				}
			})
		}
	}
	if len(seen) < len(corpus.Names()) {
		t.Fatalf("only %d distinct scenario hashes across %d families — the wall is not covering the corpus",
			len(seen), len(corpus.Names()))
	}
}

// TestExtractRaceHammer re-runs the overhauled parallel extraction under
// several GOMAXPROCS settings against a fixed sequential reference. Under
// the race detector (CI runs go test -race ./...) this hammers the chunked
// worker pool, the shared viewpoint-grid memos, and the arena pool.
func TestExtractRaceHammer(t *testing.T) {
	sc := expt.BenchScenario(3, 12, 2)
	eps1 := power.Eps1ForEps(wallEps)
	ref := reference(sc, eps1)
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 3; rep++ {
			got := extractWith(sc, pdcs.Config{Eps1: eps1, Workers: 8})
			if !candidatesBitIdentical(ref, got) {
				t.Fatalf("GOMAXPROCS=%d rep=%d: parallel extraction diverged from sequential seed reference", procs, rep)
			}
		}
	}
}
