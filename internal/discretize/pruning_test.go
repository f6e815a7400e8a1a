// Differential tests for the spatial prefilters of position generation:
// every corpus family is generated with the prefilters engaged and checked
// against the exhaustive computation they stand in for.
//
// This file is an external test package so it can import internal/corpus,
// which depends on the public hipo API and hence, transitively, on
// discretize itself — legal only from a _test package.
package discretize_test

import (
	"fmt"
	"math"
	"testing"

	"hipo/internal/corpus"
	"hipo/internal/discretize"
	"hipo/internal/model"
	"hipo/internal/power"
	"hipo/internal/visindex"
)

// eachCorpusScenario runs fn on two scenarios of every corpus family.
func eachCorpusScenario(t *testing.T, fn func(t *testing.T, sc *model.Scenario)) {
	for _, fam := range corpus.Names() {
		for i := 0; i < 2; i++ {
			t.Run(fmt.Sprintf("%s/%d", fam, i), func(t *testing.T) {
				sc, err := corpus.BuildModel(7, fam, i)
				if err != nil {
					t.Fatal(err)
				}
				fn(t, sc)
			})
		}
	}
}

// TestNeighborSetsMatchExhaustiveScan checks the device-grid neighbor sets
// against an O(n²) scan with the same exact distance predicate: same
// members, same ascending order.
func TestNeighborSetsMatchExhaustiveScan(t *testing.T) {
	eps1 := power.Eps1ForEps(0.3)
	eachCorpusScenario(t, func(t *testing.T, sc *model.Scenario) {
		for q, ct := range sc.ChargerTypes {
			got := discretize.Neighbors(discretize.NewGenerator(visindex.Ensure(sc), q, discretize.Config{Eps1: eps1}))
			r := 2 * ct.DMax
			for i := range sc.Devices {
				var want []int
				for j := range sc.Devices {
					if j != i && sc.Devices[i].Pos.Dist(sc.Devices[j].Pos) <= r {
						want = append(want, j)
					}
				}
				if fmt.Sprint(got[i]) != fmt.Sprint(want) {
					t.Fatalf("type %d device %d: grid neighbors %v, exhaustive scan %v", q, i, got[i], want)
				}
			}
		}
	})
}

// TestCandidatePositionsIndexFreeIdentical generates positions on an
// indexed scenario, where obstacles beyond a device's outermost ring are
// pruned from its ring cutting, and on an index-free clone, where every
// obstacle edge is cut. The two lists must agree bit for bit.
func TestCandidatePositionsIndexFreeIdentical(t *testing.T) {
	eps1 := power.Eps1ForEps(0.3)
	eachCorpusScenario(t, func(t *testing.T, sc *model.Scenario) {
		for q := range sc.ChargerTypes {
			pruned := discretize.CandidatePositions(visindex.Ensure(sc.Clone()), q, discretize.Config{Eps1: eps1, Workers: 2})
			full := discretize.CandidatePositions(sc.Clone(), q, discretize.Config{Eps1: eps1, Workers: 2, BruteForceVisibility: true})
			if len(pruned) != len(full) {
				t.Fatalf("type %d: %d positions with pruning, %d without", q, len(pruned), len(full))
			}
			for k := range full {
				if math.Float64bits(pruned[k].X) != math.Float64bits(full[k].X) ||
					math.Float64bits(pruned[k].Y) != math.Float64bits(full[k].Y) {
					t.Fatalf("type %d position %d: %v with pruning, %v without", q, k, pruned[k], full[k])
				}
			}
		}
	})
}
