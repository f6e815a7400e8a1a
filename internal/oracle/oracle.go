// Package oracle holds the reference implementations the solver is checked
// against. Neither runs on any production path.
//
// Exhaustive computes exact optima of tiny submodular placement instances
// by enumeration: the greedy pipeline carries a 1/2 − ε guarantee (Theorem
// 4.2) relative to the optimum over the extracted candidate set, and the
// oracle makes that optimum computable — so differential tests can assert
// the guarantee holds with an actual inequality instead of trusting the
// proof transcription. The enumeration is exponential by design and
// refuses to run past an explicit evaluation budget; it is only meaningful
// for scenarios with a handful of candidates and single-digit charger
// budgets.
//
// ExtractAll is the reference PDCS extraction: the candidate pipeline before
// its spatial prefilters, batched line of sight, pooling, and streaming
// reduction, with every one of those off. pdcs.Extract must reproduce it
// bit for bit (TestBitIdentityWall in internal/pdcs), and swept without a
// visibility index it is the brute-force arm of
// TestIndexedVsBruteForcePlacement.
package oracle

import (
	"fmt"

	"hipo/internal/core"
	"hipo/internal/model"
	"hipo/internal/submodular"
)

// Result is the exact optimum found by exhaustive enumeration.
type Result struct {
	// Selected holds indices into Instance.Elements of one optimal
	// selection (the first encountered in enumeration order).
	Selected []int
	// Value is the optimal objective value.
	Value float64
	// Evals is the number of complete selections evaluated.
	Evals int
}

// Exhaustive enumerates every feasible selection of the partition matroid
// and returns the best. Because the objective is monotone nondecreasing,
// only budget-exhausting selections are enumerated per partition (padding a
// selection never lowers its value); partitions with fewer distinct
// elements than budget and AllowRepeat=false contribute their largest
// feasible subsets instead.
//
// The total number of evaluations is computed up front; if it exceeds
// maxEvals the oracle returns an error rather than starting an enumeration
// it cannot finish.
func Exhaustive(inst *submodular.Instance, maxEvals int) (Result, error) {
	// Group element ids by partition.
	parts := make([][]int, len(inst.Budget))
	for e := range inst.Elements {
		p := inst.Elements[e].Part
		if p < 0 || p >= len(parts) {
			return Result{}, fmt.Errorf("oracle: element %d has part %d outside budget range", e, p)
		}
		parts[p] = append(parts[p], e)
	}

	// Count the enumeration before materializing any of it, so an oversized
	// instance is refused in O(parts) time.
	total := 1.0
	ks := make([]int, len(parts))
	for q := range parts {
		k := inst.Budget[q]
		if !inst.AllowRepeat && k > len(parts[q]) {
			k = len(parts[q])
		}
		if len(parts[q]) == 0 {
			k = 0
		}
		ks[q] = k
		total *= selectionCount(len(parts[q]), k, inst.AllowRepeat)
		if total > float64(maxEvals) {
			return Result{}, fmt.Errorf("oracle: enumeration needs more than %d evaluations", maxEvals)
		}
	}

	perPart := make([][][]int, len(parts))
	for q := range parts {
		perPart[q] = enumerate(parts[q], ks[q], inst.AllowRepeat)
	}

	best := Result{Value: -1}
	cur := make([]int, 0, 8)
	var walk func(q int)
	walk = func(q int) {
		if q == len(perPart) {
			v := submodular.Evaluate(inst, cur)
			best.Evals++
			if v > best.Value {
				best.Value = v
				best.Selected = append(best.Selected[:0], cur...)
			}
			return
		}
		if len(perPart[q]) == 0 {
			walk(q + 1)
			return
		}
		for _, sel := range perPart[q] {
			cur = append(cur, sel...)
			walk(q + 1)
			cur = cur[:len(cur)-len(sel)]
		}
	}
	walk(0)
	if best.Value < 0 {
		best.Value = 0 // empty ground set: the empty selection is optimal
	}
	return best, nil
}

// selectionCount returns C(n, k) (combinations) or C(n+k−1, k) (multisets)
// in floating point — precise enough for a budget check, immune to
// overflow for one.
func selectionCount(n, k int, repeat bool) float64 {
	if k == 0 {
		return 1
	}
	if repeat {
		n = n + k - 1
	}
	if k > n {
		return 0
	}
	c := 1.0
	for i := 0; i < k; i++ {
		c *= float64(n-i) / float64(i+1)
	}
	return c
}

// enumerate lists the size-k selections from ids: multisets (combinations
// with repetition) when repeat is true, plain combinations otherwise. A
// nondecreasing-index invariant avoids permuted duplicates.
func enumerate(ids []int, k int, repeat bool) [][]int {
	if k == 0 {
		return [][]int{{}}
	}
	var out [][]int
	cur := make([]int, 0, k)
	var rec func(start int)
	rec = func(start int) {
		if len(cur) == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := start; i < len(ids); i++ {
			cur = append(cur, ids[i])
			if repeat {
				rec(i)
			} else {
				rec(i + 1)
			}
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out
}

// OptimalValue runs candidate extraction exactly as the solver does, then
// exhausts the resulting instance. It returns the oracle result together
// with the instance and flattened candidates so callers can cross-check the
// greedy on identical ground.
func OptimalValue(sc *model.Scenario, opt core.Options, maxEvals int) (Result, *submodular.Instance, error) {
	cands := core.ExtractCandidates(sc, opt)
	inst, _ := core.BuildInstance(sc, cands, opt)
	res, err := Exhaustive(inst, maxEvals)
	return res, inst, err
}
