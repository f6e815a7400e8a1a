// Package discretize implements the area-discretization machinery of
// Section 4.1: the distance-level rings of the piecewise-constant power
// approximation, and the generation of candidate charger positions at the
// critical points of the multi-feasible geometric areas — ring/ring,
// ring/sector-edge, ring/obstacle-edge and ring/hole-ray intersections, the
// device-pair line and inscribed-arc constructions of Algorithm 2, and
// event-angle boundary samples.
//
// Rather than maintaining the planar arrangement of feasible geometric areas
// explicitly (which the paper itself abandons for its distributed algorithm,
// Section 5), we enumerate the arrangement's vertices and arc representatives
// directly: every practical dominating coverage set has a witness strategy at
// one of these points (Theorem 4.1's three shrinking operations terminate at
// exactly these events).
//
// The generation is split into per-device tasks (device i's own events plus
// its pair constructions with larger-indexed neighbors) so that the
// distributed Algorithm 4 of Section 5 can partition it; CandidatePositions
// is the deduplicated union of the task workloads in device order.
package discretize

import (
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync/atomic"

	"hipo/internal/geom"
	"hipo/internal/hipotrace"
	"hipo/internal/model"
	"hipo/internal/power"
	"hipo/internal/schedule"
	"hipo/internal/visibility"
	"hipo/internal/visindex"
)

// Config tunes candidate generation.
type Config struct {
	// Eps1 is the piecewise-approximation parameter ε₁ of Lemma 4.1.
	Eps1 float64
	// Workers bounds the goroutines generating per-device positions
	// (0 = GOMAXPROCS).
	Workers int
	// BruteForceVisibility answers occlusion queries by exhaustive obstacle
	// scan instead of the spatial index (differential reference arm).
	BruteForceVisibility bool
	// Tracer, when non-nil, receives pipeline counters (feasibility
	// queries). Generation hot paths count into locals and flush once per
	// call, so a nil Tracer costs nothing.
	Tracer *hipotrace.Tracer
}

// Radii returns the candidate ring radii around device j for charger type
// q: the charger's d_min plus every distance level of Lemma 4.1 for the
// (q, type(j)) power constants. Radii are strictly increasing.
func Radii(sc *model.Scenario, q, j int, eps1 float64) []float64 {
	ct := sc.ChargerTypes[q]
	dt := sc.Devices[j].Type
	pp := sc.Power[q][dt]
	lv := power.NewLevels(pp.A, pp.B, ct.DMin, ct.DMax, eps1)
	out := make([]float64, 0, lv.NumBands()+1)
	out = append(out, ct.DMin)
	for _, b := range lv.Break {
		if b > out[len(out)-1]+geom.Eps {
			out = append(out, b)
		}
	}
	return out
}

// ReceivingRing returns device j's power receiving area for charger type q:
// the sector ring with the device's receiving angle and the charger type's
// distance range (Figure 1).
func ReceivingRing(sc *model.Scenario, q, j int) geom.SectorRing {
	ct := sc.ChargerTypes[q]
	dev := sc.Devices[j]
	return geom.SectorRing{
		Apex:   dev.Pos,
		Orient: dev.Orient,
		Alpha:  sc.DeviceTypes[dev.Type].Alpha,
		RMin:   ct.DMin,
		RMax:   ct.DMax,
	}
}

// Generator precomputes per-device geometry for one charger type and
// produces candidate positions. It is safe for concurrent reads after
// construction.
type Generator struct {
	sc  *model.Scenario
	q   int
	cfg Config

	circles [][]geom.Circle  // level rings per device
	edges   [][]geom.Segment // receiving-sector straight edges per device
	holes   [][]geom.Segment // hole boundary rays per device
	rings   []geom.SectorRing
	obs     []geom.Segment // all obstacle edges
	// obsEdges[h] is the slice of obs holding obstacle h's edges, so the
	// near-disk prefilter can assemble pruned edge lists that stay
	// subsequences of obs (preserving enumeration order).
	obsEdges [][]geom.Segment
	// neighbors[i] lists, ascending, the devices within 2·d_max of device i
	// (the O_i^k of Algorithm 4), excluding i itself.
	neighbors [][]int
	// ix is the scenario's visibility index (nil without one), which
	// powers the obstacle prefilter.
	ix *visindex.Index
}

// prunePad widens every pruning radius. Like visindex's grid padding it
// strictly dominates the 1e-9 tolerances of the exact predicates
// (geom.CircleSegmentIntersections tangency slack, the ±geom.Eps range
// gates), so the prefilters can never drop an interacting obstacle or
// device.
const prunePad = 1e-6

// NewGenerator builds the per-device geometry tables for charger type q.
func NewGenerator(sc *model.Scenario, q int, cfg Config) *Generator {
	no := len(sc.Devices)
	g := &Generator{
		sc: sc, q: q, cfg: cfg,
		circles: make([][]geom.Circle, no),
		edges:   make([][]geom.Segment, no),
		holes:   make([][]geom.Segment, no),
		rings:   make([]geom.SectorRing, no),
	}
	ct := sc.ChargerTypes[q]
	for j := 0; j < no; j++ {
		g.rings[j] = ReceivingRing(sc, q, j)
		for _, r := range Radii(sc, q, j, cfg.Eps1) {
			g.circles[j] = append(g.circles[j], geom.Circle{C: sc.Devices[j].Pos, R: r})
		}
		g.edges[j] = g.rings[j].BoundaryRays()
		if len(sc.Obstacles) > 0 {
			g.holes[j] = visibility.HoleRays(sc, sc.Devices[j].Pos, ct.DMax)
		}
	}
	perObs := make([][]geom.Segment, len(sc.Obstacles))
	nEdges := 0
	for h, o := range sc.Obstacles {
		perObs[h] = o.Shape.Edges()
		nEdges += len(perObs[h])
	}
	g.obs = make([]geom.Segment, 0, nEdges)
	g.obsEdges = make([][]geom.Segment, len(sc.Obstacles))
	for h := range perObs {
		start := len(g.obs)
		g.obs = append(g.obs, perObs[h]...)
		g.obsEdges[h] = g.obs[start:len(g.obs):len(g.obs)]
	}
	if !cfg.BruteForceVisibility {
		if ix, ok := sc.AttachedVisibilityIndex().(*visindex.Index); ok {
			g.ix = ix
		}
	}
	g.buildNeighbors()
	return g
}

// buildNeighbors precomputes every device's neighbor set. A device grid
// narrows each scan to the cells overlapping the 2·d_max disk and reports
// the pairs it skipped to the tracer; the exact distance predicate then
// decides membership, so the sets equal an exhaustive scan's.
func (g *Generator) buildNeighbors() {
	sc, ct := g.sc, g.sc.ChargerTypes[g.q]
	no := len(sc.Devices)
	g.neighbors = make([][]int, no)
	r := 2 * ct.DMax
	pts := make([]geom.Vec, no)
	for i := range pts {
		pts[i] = sc.Devices[i].Pos
	}
	dgrid := visindex.NewDeviceGrid(pts, ct.DMax/2)
	mask := make([]uint64, dgrid.Words())
	pruned := int64(0)
	for i := 0; i < no; i++ {
		for w := range mask {
			mask[w] = 0
		}
		dgrid.CollectDisk(pts[i], r+prunePad, mask)
		scanned := 0
		visindex.EachSet(mask, func(j int) {
			if j == i {
				return
			}
			scanned++
			if pts[i].Dist(pts[j]) <= r {
				g.neighbors[i] = append(g.neighbors[i], j)
			}
		})
		pruned += int64(no - 1 - scanned)
	}
	g.cfg.Tracer.Add(hipotrace.CtrPairsPruned, pruned)
}

// appendDevicePositions emits the per-device candidate positions of device
// j: its level rings cut against its own sector edges, hole rays, and all
// obstacle edges, plus event-angle boundary samples (Algorithm 2 step 8).
// Positions are filtered for placement feasibility but not deduplicated.
func (g *Generator) appendDevicePositions(out []geom.Vec, j int) []geom.Vec {
	feas := 0
	add := func(p geom.Vec) {
		feas++
		if g.sc.FeasiblePosition(p) {
			out = append(out, p)
		}
	}
	segs, segsPooled := g.deviceSegs(j)
	for _, c := range g.circles[j] {
		for _, s := range segs {
			for _, p := range geom.CircleSegmentIntersections(c, s) {
				add(p)
			}
		}
	}
	if segsPooled {
		segBufs.put(segs)
	}
	for _, p := range g.eventAngleSamples(j) {
		add(p)
	}
	g.cfg.Tracer.Add(hipotrace.CtrFeasibilityQueries, int64(feas))
	return out
}

// deviceSegs assembles the segment workload device j's rings are cut
// against. With the visibility index present the obstacle portion shrinks
// to the obstacles whose padded box reaches the outermost ring; the pruned
// list is a subsequence of the full one, and every dropped obstacle is
// provably beyond every ring's intersection tolerance, so the emitted
// positions are unchanged. The returned slice comes from a pool when
// pruning assembled it (pooled=true; caller must return it via segBufs.put).
func (g *Generator) deviceSegs(j int) (segs []geom.Segment, pooled bool) {
	if g.ix == nil || len(g.obs) == 0 {
		segs = make([]geom.Segment, 0, len(g.edges[j])+len(g.holes[j])+len(g.obs))
		segs = append(segs, g.edges[j]...)
		segs = append(segs, g.holes[j]...)
		segs = append(segs, g.obs...)
		return segs, false
	}
	maxR := g.circles[j][len(g.circles[j])-1].R
	near, _ := obsBufs.get()
	near = g.ix.AppendObstaclesNearDisk(near, g.sc.Devices[j].Pos, maxR+prunePad)
	segs, _ = segBufs.get()
	segs = append(segs, g.edges[j]...)
	segs = append(segs, g.holes[j]...)
	for _, h := range near {
		segs = append(segs, g.obsEdges[h]...)
	}
	obsBufs.put(near)
	return segs, true
}

// appendPairPositions emits the candidate positions arising from the
// device pair (i, j): ring/ring intersections, cross ring/sector-edge and
// ring/hole-ray intersections, and Algorithm 2's line and inscribed-arc
// constructions. Not deduplicated. It assumes the pair is within 2·d_max
// (callers walk precomputed neighbor sets).
func (g *Generator) appendPairPositions(out []geom.Vec, i, j int) []geom.Vec {
	ct := g.sc.ChargerTypes[g.q]
	pi, pj := g.sc.Devices[i].Pos, g.sc.Devices[j].Pos
	feas := 0
	defer func() { g.cfg.Tracer.Add(hipotrace.CtrFeasibilityQueries, int64(feas)) }()
	add := func(p geom.Vec) {
		feas++
		if g.sc.FeasiblePosition(p) {
			out = append(out, p)
		}
	}
	// Rings of i vs rings of j.
	for _, ci := range g.circles[i] {
		for _, cj := range g.circles[j] {
			for _, p := range geom.CircleCircleIntersections(ci, cj) {
				add(p)
			}
		}
	}
	// Rings of one vs sector edges and hole rays of the other.
	crossSegs := func(cs []geom.Circle, segs []geom.Segment) {
		for _, c := range cs {
			for _, s := range segs {
				for _, p := range geom.CircleSegmentIntersections(c, s) {
					add(p)
				}
			}
		}
	}
	crossSegs(g.circles[i], g.edges[j])
	crossSegs(g.circles[i], g.holes[j])
	crossSegs(g.circles[j], g.edges[i])
	crossSegs(g.circles[j], g.holes[i])

	both := make([]geom.Circle, 0, len(g.circles[i])+len(g.circles[j]))
	both = append(both, g.circles[i]...)
	both = append(both, g.circles[j]...)
	// Algorithm 2 steps 2–3: the straight line through the pair, cut
	// against both devices' rings.
	for _, c := range both {
		for _, p := range geom.CircleLineIntersections(c, pi, pj) {
			add(p)
		}
	}
	// Algorithm 2 steps 5–6: inscribed-arc circles with circumferential
	// angle α_s, cut against both devices' rings and sector edges.
	for _, arc := range geom.InscribedArcCircles(pi, pj, ct.Alpha) {
		for _, c := range both {
			for _, p := range geom.CircleCircleIntersections(arc, c) {
				add(p)
			}
		}
		for _, s := range g.edges[i] {
			for _, p := range geom.CircleSegmentIntersections(arc, s) {
				add(p)
			}
		}
		for _, s := range g.edges[j] {
			for _, p := range geom.CircleSegmentIntersections(arc, s) {
				add(p)
			}
		}
	}
	return out
}

// appendTaskPositions emits the complete candidate-position workload of
// distributed task i for this charger type (Algorithm 4): device i's own
// events plus the pair constructions with every neighbor of larger index
// (smaller indices are handled by their own tasks, avoiding duplicate
// work). Not deduplicated.
func (g *Generator) appendTaskPositions(out []geom.Vec, i int) []geom.Vec {
	out = g.appendDevicePositions(out, i)
	for _, j := range g.neighbors[i] {
		if j > i {
			out = g.appendPairPositions(out, i, j)
		}
	}
	return out
}

// TaskCost estimates the relative cost of distributed task i in units of
// geometric intersection tests: device i's own ring cutting plus every
// larger-indexed neighbor pair's constructions. It is the single cost
// model shared by the parallel position generator and Algorithm 5's LPT
// scheduling/makespan simulation, deterministic for a given scenario.
func (g *Generator) TaskCost(i int) float64 {
	ci := float64(len(g.circles[i]))
	ownSegs := len(g.edges[i]) + len(g.holes[i]) + len(g.obs)
	cost := ci * float64(ownSegs)
	for _, j := range g.neighbors[i] {
		if j <= i {
			continue
		}
		cj := float64(len(g.circles[j]))
		cost += ci*cj +
			ci*float64(len(g.edges[j])+len(g.holes[j])) +
			cj*float64(len(g.edges[i])+len(g.holes[i]))
		// Line plus two inscribed-arc circles against both ring sets and
		// both sector-edge pairs.
		cost += 3*(ci+cj) + 2*float64(len(g.edges[i])+len(g.edges[j]))
	}
	return cost
}

// CandidatePositions returns the candidate charger positions for charger
// type q: the deduplicated union of all task workloads, restricted to the
// deployment region and outside obstacle interiors. Each lies within
// charging range of some device as a consequence of the construction (see
// Assemble). Task workloads run in parallel on cfg.Workers
// goroutines (0 = GOMAXPROCS), handed out in LPT order under the shared
// TaskCost model so the longest tasks start first; position buffers are
// pooled across tasks. Deduplication is order-stable over task order, so
// results are deterministic regardless of worker count, hand-out order, or
// pooling.
//
//hipo:hotpath
func CandidatePositions(sc *model.Scenario, q int, cfg Config) []geom.Vec {
	if !cfg.BruteForceVisibility {
		sc = visindex.Ensure(sc)
	}
	g := NewGenerator(sc, q, cfg)
	tasks := g.Workloads(nil, cfg.Workers, nil, nil)
	pts, _ := Assemble(tasks)
	ReleaseWorkloads(tasks)
	return pts
}

// Workloads is the generation stage of candidate extraction: it returns the
// position workload of every task, indexed by device. Non-nil entries of
// cached are reused as they stand; every other task is generated on workers
// goroutines (0 = GOMAXPROCS) handed out in order, a permutation of the
// tasks (LPT under TaskCost when nil). With cached non-nil the generated
// workloads are stored into it and belong to the caller; with cached nil
// they live in pooled buffers that ReleaseWorkloads takes back once the
// caller has assembled them. wrap, when non-nil, runs each generation, so
// a caller can time tasks (Algorithm 5).
func (g *Generator) Workloads(cached [][]geom.Vec, workers int, order []int, wrap func(i int, generate func())) [][]geom.Vec {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if order == nil {
		tasks := make([]schedule.Task, len(g.sc.Devices))
		for i := range tasks {
			tasks[i] = schedule.Task{ID: i, Duration: g.TaskCost(i)}
		}
		order = schedule.LPTOrder(tasks)
	}
	pooled := cached == nil
	var reuse atomic.Int64
	out := schedule.RunPoolOrdered(len(g.sc.Devices), workers, order, func(i int) []geom.Vec {
		if !pooled && cached[i] != nil {
			return cached[i]
		}
		var buf []geom.Vec
		if pooled {
			var reused bool
			if buf, reused = posBufs.get(); reused {
				reuse.Add(1)
			}
		}
		if wrap != nil {
			return g.wrapTask(wrap, buf, i)
		}
		return g.appendTaskPositions(buf, i)
	})
	g.cfg.Tracer.Add(hipotrace.CtrPoolReuse, reuse.Load())
	if !pooled {
		copy(cached, out)
	}
	return out
}

// wrapTask generates task i's workload into buf under wrap.
func (g *Generator) wrapTask(wrap func(i int, generate func()), buf []geom.Vec, i int) []geom.Vec {
	wrap(i, func() { buf = g.appendTaskPositions(buf, i) })
	return buf
}

// ReleaseWorkloads returns the pooled buffers of Workloads(nil, ...) to the
// pool; the workloads must not be used afterwards.
func ReleaseWorkloads(tasks [][]geom.Vec) {
	for _, t := range tasks {
		posBufs.put(t)
	}
}

// Assemble builds the candidate-position list from task workloads in device
// order: first-wins dedup (1e-6 tolerance) over their concatenation. The
// dedup preserves order, so the positions task i produced first form the
// contiguous run pts[ends[i-1]:ends[i]] (from 0 for task 0).
//
// No position is dropped for being out of every device's charging range,
// and none needs to be. Every position is cut from a task device's own
// geometry: it lies on one of that device's (or its pair partner's) level
// circles, radii in [d_min, d_max], or on one of their sector edges, which
// run radially from d_min to d_max. So each position lies within
// [d_min − Eps, d_max + Eps] of some device, up to the 1e-9 clamp of a
// segment parameter (TestPositionsInChargingBand pins this). And were one
// not, Algorithm 1's range gate (pdcs.tryDevice, oracle.sweep) rejects
// every device outside that same band, so it would yield no candidate: an
// out-of-band position could change the candidate_positions count, never a
// candidate or a placement. The reference extraction (oracle.ExtractAll)
// keeps the range filter, so the bit-identity walls check this argument.
func Assemble(tasks [][]geom.Vec) (pts []geom.Vec, ends []int) {
	n := 0
	for _, t := range tasks {
		n += len(t)
	}
	dd := newDeduper(n)
	ends = make([]int, len(tasks))
	for i, t := range tasks {
		for _, p := range t {
			dd.add(p)
		}
		ends[i] = len(dd.points)
	}
	return dd.points, ends
}

// eventAngleSamples returns representative points on each level ring of
// device j: one per maximal arc between consecutive event angles (sector
// boundaries, hole-ray directions, obstacle shadow boundaries, and
// directions toward nearby devices). This realizes Algorithm 2 step 8 — a
// boundary point of every feasible geometric arc — without computing the
// arrangement explicitly.
func (g *Generator) eventAngleSamples(j int) []geom.Vec {
	sc := g.sc
	dev := sc.Devices[j]
	ring := g.rings[j]
	angles := []float64{
		geom.NormAngle(dev.Orient - ring.Alpha/2),
		geom.NormAngle(dev.Orient + ring.Alpha/2),
	}
	for _, h := range g.holes[j] {
		angles = append(angles, h.A.Sub(dev.Pos).Angle())
	}
	angles = append(angles, visibility.EventAngles(sc, dev.Pos)...)
	// Directions toward nearby devices: exactly the precomputed 2·d_max
	// neighbor set, in the same ascending device order the full scan used.
	for _, i := range g.neighbors[j] {
		angles = append(angles, sc.Devices[i].Pos.Sub(dev.Pos).Angle())
	}
	sort.Float64s(angles)

	var out []geom.Vec
	emit := func(theta float64) {
		if !ring.ContainsDirection(theta) {
			return
		}
		for _, c := range g.circles[j] {
			out = append(out, c.C.Add(geom.FromAngle(theta).Scale(c.R)))
		}
	}
	for i, a := range angles {
		emit(a)
		next := angles[(i+1)%len(angles)]
		if i == len(angles)-1 {
			next += 2 * math.Pi
		}
		if next-a > 1e-9 {
			emit(geom.NormAngle((a + next) / 2))
		}
	}
	if len(angles) == 0 {
		emit(dev.Orient)
	}
	return out
}

// dedupTol is the deduplication tolerance, which is also the hash-cell
// size: points within dedupTol of a kept point are dropped.
const dedupTol = 1e-6

// deduper removes near-duplicate points, keeping the first of each cluster.
// Points hash to cells of side dedupTol; a new point is compared against the
// kept points of its own and the eight surrounding cells, which hold every
// point within dedupTol of it. The cells live in an open-addressed table
// (linear probing, at most half full) whose slots head an int32 chain, via
// next, of the kept points in that cell; a slot's cell is its head point's.
type deduper struct {
	slots  []int32 // the last point kept in the slot's cell, or -1 if empty
	shift  uint    // 64 − log2(len(slots)): a hash's top bits pick its home slot
	used   int
	cells  [][2]int64 // cells[k]: kept point k's cell
	next   []int32    // next[k]: the kept point before k in k's cell, or -1
	points []geom.Vec
}

// newDeduper returns a deduper sized for hint points, so a run adding at
// most hint distinct cells never grows the table.
func newDeduper(hint int) *deduper {
	size := 16
	for size < 2*hint {
		size *= 2
	}
	d := &deduper{
		cells:  make([][2]int64, 0, hint),
		next:   make([]int32, 0, hint),
		points: make([]geom.Vec, 0, hint),
	}
	d.alloc(size)
	return d
}

// alloc installs an empty table of size slots, a power of two.
func (d *deduper) alloc(size int) {
	d.slots = make([]int32, size)
	for i := range d.slots {
		d.slots[i] = -1
	}
	d.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// find returns the index of cell c's slot, or of the empty slot where it
// would go.
func (d *deduper) find(c [2]int64) int {
	h := (uint64(c[0]) ^ uint64(c[1])*0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	mask := len(d.slots) - 1
	for i := int(h >> d.shift); ; i = (i + 1) & mask {
		if k := d.slots[i]; k < 0 || d.cells[k] == c {
			return i
		}
	}
}

func (d *deduper) add(p geom.Vec) {
	c := [2]int64{int64(math.Floor(p.X / dedupTol)), int64(math.Floor(p.Y / dedupTol))}
	home := 0
	for dx := int64(-1); dx <= 1; dx++ {
		for dy := int64(-1); dy <= 1; dy++ {
			i := d.find([2]int64{c[0] + dx, c[1] + dy})
			if dx == 0 && dy == 0 {
				home = i
			}
			for k := d.slots[i]; k >= 0; k = d.next[k] {
				if d.points[k].Dist(p) <= dedupTol {
					return
				}
			}
		}
	}
	prev := d.slots[home]
	d.slots[home] = int32(len(d.points))
	d.points = append(d.points, p)
	d.cells = append(d.cells, c)
	d.next = append(d.next, prev)
	if prev < 0 {
		if d.used++; 2*d.used > len(d.slots) {
			d.grow()
		}
	}
}

// grow doubles the table, rehashing every occupied slot; the chains are
// indices into points and move with their heads unchanged.
func (d *deduper) grow() {
	old := d.slots
	d.alloc(2 * len(old))
	for _, k := range old {
		if k >= 0 {
			d.slots[d.find(d.cells[k])] = k
		}
	}
}
