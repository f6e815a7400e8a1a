package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"hipo"
	"hipo/internal/core"
	"hipo/internal/corpus"
	"hipo/internal/discretize"
	"hipo/internal/expt"
	"hipo/internal/geom"
	"hipo/internal/model"
	"hipo/internal/pdcs"
	"hipo/internal/power"
	"hipo/internal/submodular"
	"hipo/internal/visindex"
)

// coldEps is the approximation parameter of the cold-large and
// mutate-stream solves.
const coldEps = 0.3

// coldUtilitySet is how many leading scenarios the cold-large utility
// averages. Every run solves at least these, however slow, so the metric
// depends on the seed alone.
const coldUtilitySet = 16

// runCold is the cold-large workload: cold (*hipo.Scenario).Solve on large
// BenchScenarios generated from the seed, in order and rotating once all are
// solved, with a fresh scenario value per solve.
func runCold(cfg config) (*outcome, error) {
	sz := cfg.size
	o := newOutcome()
	var scens []*model.Scenario
	setup, err := timeSetup(sz.setupReps, func() error {
		scens = scens[:0]
		for i := 0; i < sz.coldScenarios; i++ {
			s := subSeed(cfg.seed, "cold", i)
			o.Seeds[fmt.Sprintf("scenario-%d", i)] = s
			scens = append(scens, expt.BenchScenario(s, sz.coldObstacles, sz.coldDevMul))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Warm the runtime (heap growth, page faults) outside the window.
	if _, err := corpus.ToPublic(scens[0]).Solve(hipo.WithEps(coldEps)); err != nil {
		return nil, fmt.Errorf("warm-up solve: %w", err)
	}
	if cfg.trace {
		return o, coldTraced(cfg, o, scens)
	}
	o.set("setup_s", setup, "s")

	util := make([]float64, len(scens))
	nUtil := min(coldUtilitySet, len(scens))
	w := startWindow(cfg.seconds)
	for i := 0; w.open() || i < nUtil; i++ {
		k := i % len(scens)
		sc := corpus.ToPublic(scens[k])
		start := time.Now()
		p, err := sc.Solve(hipo.WithEps(coldEps))
		w.op(time.Since(start))
		if err != nil {
			o.fail("solve scenario %d: %v", k, err)
			continue
		}
		checkUtility(o, sc, p, fmt.Sprintf("scenario %d", k))
		util[k] = p.Utility
	}
	w.close()
	w.report(o)
	o.set("utility", mean(util[:nUtil]), "1")
	o.Samples["utility"] = nUtil
	return o, nil
}

// checkUtility re-scores a placement with Evaluate; the exact utility must
// equal the reported one bit for bit.
func checkUtility(o *outcome, sc *hipo.Scenario, p *hipo.Placement, what string) {
	m, err := sc.Evaluate(p)
	if err != nil {
		o.fail("%s: evaluate: %v", what, err)
		return
	}
	if math.Float64bits(m.Utility) != math.Float64bits(p.Utility) {
		o.fail("%s: reported utility %v, Evaluate gives %v", what, p.Utility, m.Utility)
	}
}

// coldTraced is the traced cold-large run. Each op is an interleaved pair of
// an untraced Solve and a hipo.WithTracer Solve (the tracer-overhead pairs
// and the source of the counters), followed by the same solve composed from
// the layers' public functions under benchmark spans, which must place
// bit-identically.
func coldTraced(cfg config, o *outcome, scens []*model.Scenario) error {
	rec := newRecorder()
	o.spans = rec
	counters := map[string]int64{}
	var untracedMs, tracedPairMs, composedMs []float64
	var ledgerRuns []map[string]int64
	deadline := time.Now().Add(cfg.seconds)
	ops, i := 0, 0
	for ; time.Now().Before(deadline); i++ {
		k := i % len(scens)
		what := fmt.Sprintf("scenario %d", k)
		var plain, traced *hipo.Placement
		var tr *hipo.Tracer
		var plainMs, tracedMs float64
		runPlain := func() error {
			sc := corpus.ToPublic(scens[k])
			start := time.Now()
			p, err := sc.Solve(hipo.WithEps(coldEps))
			plain, plainMs = p, ms(time.Since(start))
			return err
		}
		runTraced := func() error {
			sc := corpus.ToPublic(scens[k])
			tr = hipo.NewTracer()
			start := time.Now()
			p, err := sc.Solve(hipo.WithEps(coldEps), hipo.WithTracer(tr))
			traced, tracedMs = p, ms(time.Since(start))
			return err
		}
		first, second := runPlain, runTraced
		if i%2 == 1 {
			first, second = runTraced, runPlain
		}
		if err := first(); err != nil {
			o.fail("%s: solve: %v", what, err)
			continue
		}
		if err := second(); err != nil {
			o.fail("%s: solve: %v", what, err)
			continue
		}
		untracedMs = append(untracedMs, plainMs)
		tracedPairMs = append(tracedPairMs, tracedMs)
		ops++
		if !samePlaced(plain.Chargers, traced.Chargers) {
			o.fail("%s: WithTracer changed the placement", what)
		}
		ctrs := tr.Breakdown().Counters
		for name, v := range ctrs {
			counters[name] += v
		}

		start := time.Now()
		placed, utility := composedSolve(rec, ops, scens[k])
		composedMs = append(composedMs, ms(time.Since(start)))
		if !samePlaced(plain.Chargers, placedOf(placed)) ||
			math.Float64bits(plain.Utility) != math.Float64bits(utility) {
			o.fail("%s: composed placement differs from Solve", what)
		}
		checkUtility(o, corpus.ToPublic(scens[k]), plain, what)

		if i == 0 {
			// Work ledger: the same scenario again at the default worker
			// count and at one worker.
			ledgerRuns = append(ledgerRuns, ctrs)
			for _, workers := range []int{runtime.GOMAXPROCS(0), 1} {
				tr1 := hipo.NewTracer()
				if _, err := corpus.ToPublic(scens[k]).Solve(hipo.WithEps(coldEps),
					hipo.WithWorkers(workers), hipo.WithTracer(tr1)); err != nil {
					o.fail("%s: ledger solve: %v", what, err)
				}
				ledgerRuns = append(ledgerRuns, tr1.Breakdown().Counters)
			}
			o.Ledger = buildLedger([]int{runtime.GOMAXPROCS(0), runtime.GOMAXPROCS(0), 1}, ledgerRuns)
		}
	}
	o.Attempted += i
	layerMetrics(o, rec, ops)
	counterMetricsPerOp(o, counters, ops)
	hipotraceOverhead(o, untracedMs, tracedPairMs)
	o.set("bench.trace_overhead_ratio", percentile(composedMs, 0.5)/percentile(untracedMs, 0.5)-1, "1")
	o.Samples["bench.trace_overhead_ratio"] = len(composedMs)
	return nil
}

// composedSolve is core.Solve for the default lazy greedy, rebuilt from the
// layers' public functions with a span around each call.
func composedSolve(rec *recorder, op int, msc *model.Scenario) ([]model.Strategy, float64) {
	root, end := rec.start("op", 0, op)
	defer end()
	workers := runtime.GOMAXPROCS(0)
	eps1 := power.Eps1ForEps(coldEps)
	var sc *model.Scenario
	rec.do("visindex.ensure", root, op, func() { sc = visindex.Ensure(msc) })
	cands := make([][]pdcs.Candidate, len(sc.ChargerTypes))
	for q := range sc.ChargerTypes {
		var positions []geom.Vec
		rec.do("discretize.candidate_positions", root, op, func() {
			positions = discretize.CandidatePositions(sc, q, discretize.Config{Eps1: eps1, Workers: workers})
		})
		var sw *pdcs.Sweeper
		pcfg := pdcs.Config{Eps1: eps1, Workers: workers}
		rec.do("pdcs.new_sweeper", root, op, func() { sw = pdcs.NewSweeper(sc, q, pcfg) })
		var perPos [][]pdcs.Candidate
		rec.do("pdcs.sweep", root, op, func() { perPos = sw.SweepPositions(positions) })
		rec.do("pdcs.reduce", root, op, func() { cands[q] = pdcs.ReduceCandidates(perPos, len(sc.Devices)) })
	}
	var inst *submodular.Instance
	var flat []pdcs.Candidate
	rec.do("core.build_instance", root, op, func() {
		inst, flat = core.BuildInstance(sc, cands, core.Options{Eps: coldEps})
	})
	var res submodular.Result
	rec.do("submodular.greedy", root, op, func() { res = submodular.GreedyLazy(inst) })
	placed := make([]model.Strategy, 0, len(res.Selected))
	for _, e := range res.Selected {
		placed = append(placed, flat[e].S)
	}
	var utility float64
	rec.do("power.evaluate", root, op, func() { utility = power.TotalUtility(sc, placed) })
	return placed, utility
}

// samePlaced compares two placements bit for bit.
func samePlaced(a, b []hipo.PlacedCharger) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Pos.X) != math.Float64bits(b[i].Pos.X) ||
			math.Float64bits(a[i].Pos.Y) != math.Float64bits(b[i].Pos.Y) ||
			math.Float64bits(a[i].Orient) != math.Float64bits(b[i].Orient) ||
			a[i].Type != b[i].Type {
			return false
		}
	}
	return true
}

// placedOf converts strategies to the public placement type.
func placedOf(ss []model.Strategy) []hipo.PlacedCharger {
	out := make([]hipo.PlacedCharger, 0, len(ss))
	for _, s := range ss {
		out = append(out, hipo.PlacedCharger{Pos: hipo.Point{X: s.Pos.X, Y: s.Pos.Y}, Orient: s.Orient, Type: s.Type})
	}
	return out
}
