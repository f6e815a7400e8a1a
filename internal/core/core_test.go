package core

import (
	"context"
	"math"
	"testing"

	"hipo/internal/geom"
	"hipo/internal/model"
	"hipo/internal/pdcs"
	"hipo/internal/power"
)

// smallScenario: two charger types, four devices, one obstacle.
func smallScenario() *model.Scenario {
	sc := &model.Scenario{
		Region: model.Region{Min: geom.V(0, 0), Max: geom.V(40, 40)},
		ChargerTypes: []model.ChargerType{
			{Name: "c1", Alpha: math.Pi / 3, DMin: 3, DMax: 8, Count: 1},
			{Name: "c2", Alpha: math.Pi / 2, DMin: 2, DMax: 6, Count: 2},
		},
		DeviceTypes: []model.DeviceType{
			{Name: "d1", Alpha: math.Pi, PTh: 0.05},
			{Name: "d2", Alpha: 3 * math.Pi / 4, PTh: 0.05},
		},
		Power: [][]model.PowerParams{
			{{A: 100, B: 40}, {A: 130, B: 52}},
			{{A: 110, B: 44}, {A: 140, B: 56}},
		},
		Devices: []model.Device{
			{Pos: geom.V(10, 10), Orient: 0, Type: 0},
			{Pos: geom.V(14, 12), Orient: math.Pi, Type: 1},
			{Pos: geom.V(28, 28), Orient: math.Pi / 2, Type: 0},
			{Pos: geom.V(30, 24), Orient: math.Pi, Type: 1},
		},
		Obstacles: []model.Obstacle{
			{Shape: geom.Rect(18, 16, 22, 20)},
		},
	}
	return sc
}

func TestSolveBasic(t *testing.T) {
	sc := smallScenario()
	sol, err := Solve(sc, DefaultOptions())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if len(sol.Placed) == 0 {
		t.Fatal("no chargers placed")
	}
	if len(sol.Placed) > sc.TotalChargers() {
		t.Fatalf("placed %d > budget %d", len(sol.Placed), sc.TotalChargers())
	}
	if sol.Utility <= 0 || sol.Utility > 1+1e-9 {
		t.Fatalf("utility = %v out of (0,1]", sol.Utility)
	}
	// Budgets per type respected.
	counts := map[int]int{}
	for _, s := range sol.Placed {
		counts[s.Type]++
		if !sc.FeasiblePosition(s.Pos) {
			t.Fatalf("infeasible placement %v", s.Pos)
		}
	}
	for q, ct := range sc.ChargerTypes {
		if counts[q] > ct.Count {
			t.Fatalf("type %d over budget: %d > %d", q, counts[q], ct.Count)
		}
	}
	// The exact utility must match recomputation.
	if got := power.TotalUtility(sc, sol.Placed); math.Abs(got-sol.Utility) > 1e-12 {
		t.Fatalf("utility mismatch: %v vs %v", got, sol.Utility)
	}
}

func TestSolveInvalidScenario(t *testing.T) {
	sc := smallScenario()
	sc.ChargerTypes = nil
	if _, err := Solve(sc, DefaultOptions()); err == nil {
		t.Fatal("expected error for invalid scenario")
	}
}

func TestVariantsConsistent(t *testing.T) {
	sc := smallScenario()
	cands := ExtractCandidates(sc, DefaultOptions())
	var values []float64
	for _, v := range []GreedyVariant{GreedyLazy, GreedyGlobal, GreedyPerType} {
		opt := DefaultOptions()
		opt.Variant = v
		sol, err := SelectFromCandidates(sc, cands, opt)
		if err != nil {
			t.Fatalf("variant %d: %v", v, err)
		}
		values = append(values, sol.ApproxValue)
	}
	// Lazy and global must agree exactly; per-type may differ but not by
	// more than a factor 2 either way (both are 1/2-approximations of the
	// same optimum).
	if math.Abs(values[0]-values[1]) > 1e-9 {
		t.Errorf("lazy %v != global %v", values[0], values[1])
	}
	if values[2] < values[1]/2-1e-9 || values[1] < values[2]/2-1e-9 {
		t.Errorf("per-type %v vs global %v inconsistent", values[2], values[1])
	}
}

// TestGreedyGlobalIndependentOfWorkers pins the global greedy to one
// selection at every worker count. Among 400 single-device candidates,
// index 300 beats index 0 by one ulp of gain; the strictly larger gain must
// win however many workers the options carry.
func TestGreedyGlobalIndependentOfWorkers(t *testing.T) {
	sc := &model.Scenario{
		Region:       model.Region{Min: geom.V(0, 0), Max: geom.V(500, 10)},
		ChargerTypes: []model.ChargerType{{Name: "c", Alpha: math.Pi / 2, DMin: 0, DMax: 5, Count: 1}},
		DeviceTypes:  []model.DeviceType{{Name: "d", Alpha: 2 * math.Pi, PTh: 1}},
		Power:        [][]model.PowerParams{{{A: 1, B: 1}}},
		Devices:      []model.Device{{Pos: geom.V(1, 1)}},
	}
	cands := make([]pdcs.Candidate, 400)
	for i := range cands {
		pw := 0.1
		switch i {
		case 0:
			pw = 0.3
		case 300:
			pw = math.Nextafter(0.3, 1)
		}
		cands[i] = pdcs.Candidate{
			S:      model.Strategy{Pos: geom.V(float64(i), 5)},
			Covers: []pdcs.DevPower{{Device: 0, Power: pw}},
		}
	}
	for _, workers := range []int{1, 2, 8} {
		opt := DefaultOptions()
		opt.Variant = GreedyGlobal
		opt.Workers = workers
		sol, err := SelectFromCandidates(sc, [][]pdcs.Candidate{cands}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(sol.Placed) != 1 || sol.Placed[0].Pos.X != 300 {
			t.Fatalf("workers=%d: placed %v, want the candidate at index 300", workers, sol.Placed)
		}
	}
}

func TestObstacleReducesUtility(t *testing.T) {
	sc := smallScenario()
	sc.Devices = []model.Device{
		{Pos: geom.V(10, 10), Orient: 0, Type: 0},
		{Pos: geom.V(14, 10), Orient: math.Pi, Type: 0},
	}
	clear := sc.Clone()
	clear.Obstacles = nil
	solClear, err := Solve(clear, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Wall tightly boxing device 0 from its receiving side.
	walled := sc.Clone()
	walled.Obstacles = []model.Obstacle{
		{Shape: geom.Rect(10.5, 8, 11.5, 12)},
	}
	solWalled, err := Solve(walled, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if solWalled.Utility > solClear.Utility+1e-9 {
		t.Errorf("walled utility %v exceeds clear %v", solWalled.Utility, solClear.Utility)
	}
}

func TestMoreChargersMoreUtility(t *testing.T) {
	sc := smallScenario()
	few := sc.Clone()
	few.ChargerTypes[0].Count = 1
	few.ChargerTypes[1].Count = 0
	many := sc.Clone()
	many.ChargerTypes[0].Count = 3
	many.ChargerTypes[1].Count = 3
	solFew, err := Solve(few, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	solMany, err := Solve(many, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if solMany.ApproxValue < solFew.ApproxValue-1e-9 {
		t.Errorf("more chargers decreased value: %v < %v", solMany.ApproxValue, solFew.ApproxValue)
	}
}

func TestTheoreticalRatio(t *testing.T) {
	opt := Options{Eps: 0.15}
	if got := opt.TheoreticalRatio(); math.Abs(got-0.35) > 1e-12 {
		t.Errorf("ratio = %v, want 0.35", got)
	}
	bad := Options{Eps: 0.9}
	if got := bad.TheoreticalRatio(); math.Abs(got-0.35) > 1e-12 {
		t.Errorf("invalid eps should fall back to default: %v", got)
	}
}

func TestSolveNoFeasibleCandidates(t *testing.T) {
	sc := smallScenario()
	// Devices with tiny receiving angle facing away from everything the
	// charger can reach — still solvable, possibly with zero placements.
	for i := range sc.Devices {
		sc.Devices[i].Orient = 0
	}
	sc.DeviceTypes[0].Alpha = 0.01
	sc.DeviceTypes[1].Alpha = 0.01
	sol, err := Solve(sc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_ = sol // any placement count is fine; must simply not crash
}

func TestExactUtilityAtLeastApprox(t *testing.T) {
	// Lemma 4.2/4.3: approximated power underestimates exact power, so the
	// exact utility of the chosen placement is ≥ the approximate objective.
	sc := smallScenario()
	sol, err := Solve(sc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Utility < sol.ApproxValue-1e-9 {
		t.Errorf("exact utility %v below approximate value %v", sol.Utility, sol.ApproxValue)
	}
}

func TestSolveContextCancellation(t *testing.T) {
	sc := smallScenario()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := DefaultOptions()
	opt.Ctx = ctx
	if _, err := Solve(sc, opt); err == nil {
		t.Error("canceled context should abort Solve")
	}
	// SelectFromCandidates also honors cancellation.
	cands := ExtractCandidates(sc, DefaultOptions())
	if _, err := SelectFromCandidates(sc, cands, opt); err == nil {
		t.Error("canceled context should abort selection")
	}
	// Nil context never cancels.
	live := DefaultOptions()
	if _, err := Solve(sc, live); err != nil {
		t.Fatalf("nil-context solve failed: %v", err)
	}
}
