package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"hipo"
	"hipo/internal/corpus"
	"hipo/internal/expt"
	"hipo/internal/geom"
	"hipo/internal/model"
	"hipo/internal/visindex"
)

// Mutation mix of mutate-stream: shares of add_obstacle, add_device and
// remove_device; the rest are move_device.
const (
	shareAddObstacle = 0.05
	shareAddDevice   = 0.12
	shareRemove      = 0.12
	// moveRadius bounds how far one move_device step carries a device (m).
	moveRadius = 3.0
	// deviceDrift bounds how far adds and removes may take the device count
	// from its starting value.
	deviceDrift = 8
	// obstacleSide is the side of an added square obstacle (m).
	obstacleSide = 1.5
	// mutUtilitySteps is how many leading steps the mutate-stream utility
	// averages. Every run takes at least these, however slow, so the metric
	// depends on the seed alone.
	mutUtilitySteps = 100
	// stepsPerSession is how many steps a session takes before one on the
	// next base scenario replaces it: a run then averages over several
	// scenes while holding one session's memory.
	stepsPerSession = 6
)

// mutGen draws a seeded stream of single mutations that are valid against
// the session's current scenario. It mirrors the scenario to check
// feasibility without asking the session.
type mutGen struct {
	rng   *rand.Rand
	sc    *model.Scenario
	base  int
	types int
}

func newMutGen(seed int64, sc *model.Scenario) *mutGen {
	mirror := *sc
	mirror.Devices = append([]model.Device(nil), sc.Devices...)
	mirror.Obstacles = append([]model.Obstacle(nil), sc.Obstacles...)
	return &mutGen{rng: rand.New(rand.NewSource(seed)), sc: &mirror, base: len(sc.Devices), types: len(sc.DeviceTypes)}
}

// feasibleNear samples a feasible point within r of c (anywhere when r ≤ 0).
func (g *mutGen) feasibleNear(c geom.Vec, r float64) geom.Vec {
	reg := g.sc.Region
	for {
		var p geom.Vec
		if r > 0 {
			a, d := g.rng.Float64()*2*math.Pi, r*math.Sqrt(g.rng.Float64())
			p = geom.V(c.X+d*math.Cos(a), c.Y+d*math.Sin(a))
		} else {
			p = geom.V(reg.Min.X+g.rng.Float64()*reg.Width(), reg.Min.Y+g.rng.Float64()*reg.Height())
		}
		if g.sc.FeasiblePosition(p) {
			return p
		}
	}
}

// next returns the next mutation and applies it to the mirror.
func (g *mutGen) next() hipo.Mutation {
	n := len(g.sc.Devices)
	r := g.rng.Float64()
	switch {
	case r < shareAddObstacle:
		return g.addObstacle()
	case r < shareAddObstacle+shareAddDevice && n < g.base+deviceDrift:
		d := model.Device{Pos: g.feasibleNear(geom.Vec{}, 0), Orient: g.rng.Float64() * 2 * math.Pi, Type: g.rng.Intn(g.types)}
		g.sc.Devices = append(g.sc.Devices, d)
		return hipo.MutateAddDevice(hipo.Device{Pos: hipo.Point{X: d.Pos.X, Y: d.Pos.Y}, Orient: d.Orient, Type: d.Type})
	case r < shareAddObstacle+shareAddDevice+shareRemove && n > g.base-deviceDrift:
		i := g.rng.Intn(n)
		g.sc.Devices = append(g.sc.Devices[:i], g.sc.Devices[i+1:]...)
		return hipo.MutateRemoveDevice(i)
	default:
		i := g.rng.Intn(n)
		p := g.feasibleNear(g.sc.Devices[i].Pos, moveRadius)
		o := g.rng.Float64() * 2 * math.Pi
		g.sc.Devices[i].Pos, g.sc.Devices[i].Orient = p, o
		return hipo.MutateMoveDevice(i, hipo.Point{X: p.X, Y: p.Y}, o)
	}
}

// addObstacle places a small square that swallows no device.
func (g *mutGen) addObstacle() hipo.Mutation {
	reg := g.sc.Region
	for {
		c := geom.V(reg.Min.X+1+g.rng.Float64()*(reg.Width()-obstacleSide-2),
			reg.Min.Y+1+g.rng.Float64()*(reg.Height()-obstacleSide-2))
		vs := []geom.Vec{c, geom.V(c.X+obstacleSide, c.Y), geom.V(c.X+obstacleSide, c.Y+obstacleSide), geom.V(c.X, c.Y+obstacleSide)}
		shape := geom.Polygon{Vertices: vs}
		clear := true
		for _, d := range g.sc.Devices {
			if shape.ContainsInterior(d.Pos) {
				clear = false
				break
			}
		}
		if !clear {
			continue
		}
		g.sc.Obstacles = append(g.sc.Obstacles, model.Obstacle{Shape: shape})
		var pts []hipo.Point
		for _, v := range vs {
			pts = append(pts, hipo.Point{X: v.X, Y: v.Y})
		}
		return hipo.MutateAddObstacle(hipo.Obstacle{Vertices: pts})
	}
}

// session is one primed hipo.Incremental session of mutate-stream with the
// base scenario it started from and its own mutation stream.
type session struct {
	inc *hipo.Incremental
	gen *mutGen
}

// primeSession builds base scenario k, starts a session on it, and solves
// once; it returns the wall time that took, timed after a collection like
// every set-up.
func primeSession(cfg config, k int, extra ...hipo.Option) (*session, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	base := expt.BenchScenario(subSeed(cfg.seed, "mutate", k), cfg.size.mutObstacles, cfg.size.mutDevMul)
	inc, err := corpus.ToPublic(base).NewIncremental(append([]hipo.Option{hipo.WithEps(coldEps)}, extra...)...)
	if err != nil {
		return nil, 0, err
	}
	if _, err := inc.Solve(); err != nil {
		return nil, 0, fmt.Errorf("prime solve: %w", err)
	}
	return &session{inc: inc, gen: newMutGen(subSeed(cfg.seed, "stream", k), base)}, time.Since(start), nil
}

// snapshot is a step kept for the after-window check against a cold solve.
type snapshot struct {
	step int
	sc   *hipo.Scenario
	p    *hipo.Placement
}

// runMutate is the mutate-stream workload: a primed hipo.Incremental session
// applies single mutations from a seeded stream, each followed by Solve.
// Every stepsPerSession steps a session on the next base scenario takes
// over; its priming is paused out of the window and counts as set-up, so
// setup_s is the median prime time, the first left out.
func runMutate(cfg config) (*outcome, error) {
	o := newOutcome()
	var primes []float64
	prime := func(k int, extra ...hipo.Option) (*session, error) {
		s, d, err := primeSession(cfg, k, extra...)
		if err != nil {
			return nil, err
		}
		primes = append(primes, d.Seconds())
		o.Seeds[fmt.Sprintf("scenario-%d", k)] = subSeed(cfg.seed, "mutate", k)
		o.Seeds[fmt.Sprintf("stream-%d", k)] = subSeed(cfg.seed, "stream", k)
		return s, nil
	}
	if cfg.trace {
		return o, mutateTraced(cfg, o, prime)
	}
	st, err := prime(0)
	if err != nil {
		return nil, err
	}

	sample := rand.New(rand.NewSource(subSeed(cfg.seed, "check", 0)))
	var kept []snapshot
	var last snapshot
	var utils []float64
	byOp := map[string][]float64{}
	w := startWindow(cfg.seconds)
	for step := 0; w.open() || step < mutUtilitySteps; step++ {
		if step > 0 && step%stepsPerSession == 0 {
			resume := w.pause()
			st, err = prime(step / stepsPerSession)
			resume()
			if err != nil {
				w.close()
				return nil, err
			}
		}
		m := st.gen.next()
		start := time.Now()
		err := st.inc.Apply(m)
		var p *hipo.Placement
		if err == nil {
			p, err = st.inc.Solve()
		}
		d := time.Since(start)
		w.op(d)
		byOp[m.Op] = append(byOp[m.Op], ms(d))
		if err != nil {
			o.fail("step %d (%s): %v", step, m.Op, err)
			continue
		}
		if step < mutUtilitySteps {
			utils = append(utils, p.Utility)
		}
		last = snapshot{step, st.inc.Scenario(), p}
		if len(kept) < cfg.size.mutChecks && sample.Intn(8) == 0 {
			kept = append(kept, last)
		}
	}
	w.close()
	w.report(o)
	// The first prime runs on a cold runtime; like every workload's first
	// set-up it is a warm-up.
	o.set("setup_s", percentile(primes[min(1, len(primes)-1):], 0.5), "s")
	o.Samples["setup_s"] = max(1, len(primes)-1)
	o.set("utility", mean(utils), "1")
	o.Samples["utility"] = len(utils)
	for op, xs := range byOp {
		o.extra("op_ms.p50."+op, percentile(xs, 0.5), "ms")
		o.Samples["op_ms.p50."+op] = len(xs)
	}
	if last.sc != nil && (len(kept) == 0 || kept[len(kept)-1].step != last.step) {
		kept = append(kept, last)
	}
	for _, s := range kept {
		checkAgainstCold(o, s)
	}
	o.extra("checked_steps", float64(len(kept)), "count")
	return o, nil
}

// checkAgainstCold requires a warm placement to equal a cold Solve of the
// same mutated scenario, bit for bit.
func checkAgainstCold(o *outcome, s snapshot) {
	cold, err := s.sc.Solve(hipo.WithEps(coldEps))
	if err != nil {
		o.fail("step %d: cold solve: %v", s.step, err)
		return
	}
	if !samePlaced(cold.Chargers, s.p.Chargers) || math.Float64bits(cold.Utility) != math.Float64bits(s.p.Utility) {
		o.fail("step %d: incremental placement differs from a cold solve", s.step)
	}
}

// mutateTraced runs the stream on pairs of sessions primed alike: an
// untraced one and one with hipo.WithTracer whose Apply and Solve calls run
// under benchmark spans. Steps alternate which session goes first; their
// placements must agree. Tracer-counter and Stats deltas of the traced
// sessions give the per-layer counts and reuse ratios.
func mutateTraced(cfg config, o *outcome, prime func(int, ...hipo.Option) (*session, error)) error {
	rec := newRecorder()
	o.spans = rec
	var plainS, tracedS *session
	var tr *hipo.Tracer
	var stats0 hipo.IncrementalStats
	var ctr0 map[string]int64
	var reused, recomputed, sweepsReused, sweepsComputed, warm, cold int
	counters := map[string]int64{}
	// flush adds the finished traced session's deltas to the totals.
	flush := func() {
		if tracedS == nil {
			return
		}
		st := tracedS.inc.Stats()
		reused += st.TasksReused - stats0.TasksReused
		recomputed += st.TasksRecomputed - stats0.TasksRecomputed
		sweepsReused += st.SweepsReused - stats0.SweepsReused
		sweepsComputed += st.SweepsComputed - stats0.SweepsComputed
		warm += st.GainsWarm - stats0.GainsWarm
		cold += st.GainsCold - stats0.GainsCold
		for k, v := range tr.Breakdown().Counters {
			counters[k] += v - ctr0[k]
		}
	}
	var untracedMs, tracedMs []float64
	var history []hipo.Mutation
	ops := 0
	deadline := time.Now().Add(cfg.seconds)
	for step := 0; time.Now().Before(deadline); step++ {
		if step%stepsPerSession == 0 {
			flush()
			k := step / stepsPerSession
			var err error
			if plainS, err = prime(k); err != nil {
				return err
			}
			tr = hipo.NewTracer()
			if tracedS, err = prime(k, hipo.WithTracer(tr)); err != nil {
				return err
			}
			stats0, ctr0 = tracedS.inc.Stats(), tr.Breakdown().Counters
		}
		m := plainS.gen.next()
		if step < ledgerSteps {
			history = append(history, m)
		}
		var plain, traced *hipo.Placement
		var errPlain, errTraced error
		runPlain := func() {
			start := time.Now()
			if errPlain = plainS.inc.Apply(m); errPlain == nil {
				plain, errPlain = plainS.inc.Solve()
			}
			untracedMs = append(untracedMs, ms(time.Since(start)))
		}
		runTraced := func() {
			start := time.Now()
			root, end := rec.start("op", 0, 0)
			rec.do("incremental.apply", root, root, func() { errTraced = tracedS.inc.Apply(m) })
			if errTraced == nil {
				rec.do("incremental.solve", root, root, func() { traced, errTraced = tracedS.inc.Solve() })
			}
			end()
			tracedMs = append(tracedMs, ms(time.Since(start)))
			if errTraced == nil && m.Op == "add_obstacle" {
				// The session rebuilt its visibility index; time the same
				// rebuild from outside.
				rec.do("visindex.ensure", root, root, func() { visindex.Ensure(plainS.gen.sc) })
			}
		}
		if step%2 == 0 {
			runPlain()
			runTraced()
		} else {
			runTraced()
			runPlain()
		}
		o.Attempted++
		if errPlain != nil || errTraced != nil {
			o.fail("step %d (%s): %v / %v", step, m.Op, errPlain, errTraced)
			continue
		}
		ops++
		if !samePlaced(plain.Chargers, traced.Chargers) {
			o.fail("step %d: traced session placed differently", step)
		}
	}
	flush()

	ratio := func(a, b int) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	o.set("incremental.task_reuse_ratio", ratio(reused, recomputed), "1")
	o.set("incremental.sweep_reuse_ratio", ratio(sweepsReused, sweepsComputed), "1")
	o.set("incremental.gain_warm_ratio", ratio(warm, cold), "1")
	layerMetrics(o, rec, ops)
	counterMetricsPerOp(o, counters, ops)
	hipotraceOverhead(o, untracedMs, tracedMs)
	o.set("bench.trace_overhead_ratio", percentile(tracedMs, 0.5)/percentile(untracedMs, 0.5)-1, "1")
	o.Samples["bench.trace_overhead_ratio"] = len(tracedMs)
	var err error
	if o.Ledger, err = mutateLedger(cfg, history); err != nil {
		o.fail("ledger replay: %v", err)
	}
	return nil
}

// ledgerSteps is how many leading steps of the stream the mutate-stream
// work ledger covers: those of the first session, which it replays.
const ledgerSteps = stepsPerSession

// mutateLedger replays the first steps of the stream on fresh sessions at
// the default worker count (twice) and at one worker, and admits the
// counters and reuse counts that agree.
func mutateLedger(cfg config, history []hipo.Mutation) (*ledger, error) {
	workers := []int{runtime.GOMAXPROCS(0), runtime.GOMAXPROCS(0), 1}
	var runs []map[string]int64
	for _, n := range workers {
		tr := hipo.NewTracer()
		st, _, err := primeSession(cfg, 0, hipo.WithWorkers(n), hipo.WithTracer(tr))
		if err != nil {
			return nil, err
		}
		for _, m := range history {
			if err := st.inc.Apply(m); err != nil {
				return nil, err
			}
			if _, err := st.inc.Solve(); err != nil {
				return nil, err
			}
		}
		counts := tr.Breakdown().Counters
		s := st.inc.Stats()
		counts["tasks_reused"], counts["tasks_recomputed"] = int64(s.TasksReused), int64(s.TasksRecomputed)
		counts["sweeps_reused"], counts["sweeps_computed"] = int64(s.SweepsReused), int64(s.SweepsComputed)
		counts["gains_warm"], counts["gains_cold"] = int64(s.GainsWarm), int64(s.GainsCold)
		runs = append(runs, counts)
	}
	return buildLedger(workers, runs), nil
}
