// Package pdcs implements Practical Dominating Coverage Set extraction
// (Section 4.2): Algorithm 1 (the rotating sweep at a fixed point),
// Algorithm 2 (area case, realized over the critical candidate positions
// from internal/discretize), and the dominance filtering that discards
// strategies whose coverage is subsumed by another strategy of the same
// charger type.
package pdcs

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"time"

	"hipo/internal/discretize"
	"hipo/internal/geom"
	"hipo/internal/hipotrace"
	"hipo/internal/model"
	"hipo/internal/power"
	"hipo/internal/visindex"
)

// DevPower records the approximated charging power a candidate strategy
// delivers to one device.
type DevPower struct {
	Device int
	Power  float64
}

// Candidate is a candidate strategy together with the devices it covers and
// the piecewise-approximated power each receives.
type Candidate struct {
	S      model.Strategy
	Covers []DevPower // sorted by device index
}

// TotalPower returns the sum of approximated powers the candidate delivers.
func (c *Candidate) TotalPower() float64 {
	t := 0.0
	for _, dp := range c.Covers {
		t += dp.Power
	}
	return t
}

// eligible describes a device chargeable from a position, once the charger
// orientation allows it: its direction from the position and its
// approximated power.
type eligible struct {
	device int
	theta  float64 // direction from the charger position to the device
	pw     float64 // approximated charging power
}

// prunePad widens the device-grid query radius past every exact-predicate
// tolerance (the ±geom.Eps range gates), mirroring the padding contract of
// internal/visindex: the grid may only over-approximate.
const prunePad = 1e-6

// eligibleCache precomputes, per device type, the piecewise power levels
// for one charger type so that eligibility checks at thousands of candidate
// positions avoid re-deriving them; it also carries the device grid that
// prunes each position's device scan and the viewpoint tiling that batches
// its line-of-sight rays. Safe for concurrent use.
type eligibleCache struct {
	sc     *model.Scenario
	q      int
	ct     model.ChargerType
	levels []power.Levels // per device type
	// powerLevels is the total piecewise band count across device types (the
	// K of Lemma 4.1), reported to the tracer once per extraction.
	powerLevels int64
	tracer      *hipotrace.Tracer

	// dirs[j] = geom.FromAngle(Devices[j].Orient) and cosHalf[t] =
	// cos(DeviceTypes[t].Alpha/2), hoisted out of the sector gate that runs
	// millions of times per extraction; the values are the exact floats the
	// gate would recompute, so hoisting changes no bit.
	dirs    []geom.Vec
	cosHalf []float64

	// dgrid narrows each position's device scan to the cells overlapping
	// its d_max disk.
	dgrid *visindex.DeviceGrid
	// vpg answers LOS rays through memoized per-tile viewpoint batches: one
	// obstacle collection per tile of positions instead of one DDA walk per
	// ray (nil under brute-force visibility or without obstacles).
	vpg    *visindex.ViewpointGrid
	elPool sync.Pool // *[]eligible
	arPool sync.Pool // *covArena
}

func newEligibleCache(sc *model.Scenario, q int, eps1 float64, tr *hipotrace.Tracer) *eligibleCache {
	ct := sc.ChargerTypes[q]
	c := &eligibleCache{sc: sc, q: q, ct: ct, tracer: tr}
	levels := int64(0)
	for t := range sc.DeviceTypes {
		pp := sc.Power[q][t]
		c.levels = append(c.levels, power.NewLevels(pp.A, pp.B, ct.DMin, ct.DMax, eps1))
		levels += int64(c.levels[t].NumBands())
	}
	c.powerLevels = levels
	pts := make([]geom.Vec, len(sc.Devices))
	c.dirs = make([]geom.Vec, len(sc.Devices))
	for j := range pts {
		pts[j] = sc.Devices[j].Pos
		c.dirs[j] = geom.FromAngle(sc.Devices[j].Orient)
	}
	c.cosHalf = make([]float64, len(sc.DeviceTypes))
	for t := range sc.DeviceTypes {
		c.cosHalf[t] = math.Cos(sc.DeviceTypes[t].Alpha / 2)
	}
	c.dgrid = visindex.NewDeviceGrid(pts, ct.DMax/2)
	if len(sc.Obstacles) > 0 {
		if ix, ok := sc.AttachedVisibilityIndex().(*visindex.Index); ok {
			c.vpg = ix.NewViewpointGrid(ct.DMax+prunePad, pts)
		}
	}
	return c
}

// getArena hands out a pooled Covers arena for one sweep chunk; reused is
// true when the arena (and its partially filled chunk) came back from an
// earlier chunk instead of being freshly allocated.
func (c *eligibleCache) getArena() (ar *covArena, reused bool) {
	if v := c.arPool.Get(); v != nil {
		return v.(*covArena), true
	}
	return &covArena{}, false
}

func (c *eligibleCache) putArena(ar *covArena) { c.arPool.Put(ar) }

// Tile-prefilter tolerances. The prefilter works on the tile envelope (all
// positions within slack of the tile center), so its gates must out-pad the
// exact per-position predicates in tryDevice:
//
//   - tileDistPad widens the [DMin, DMax] annulus beyond the exact ±geom.Eps
//     range gates, and is also the minimum center distance (beyond the
//     slack) at which the sector gate may engage — guaranteeing every
//     in-tile position is at least tileDistPad from the device, which
//     bounds the exact sector gate's angular tolerance below.
//   - tileAngPad bounds the widening of the exact sector acceptance cone:
//     tryDevice accepts cos ψ ≥ cos(α/2) − ε′ with ε′ = geom.Eps·max(1,d)/d
//     ≤ 1e-9/tileDistPad = 1e-6 for d ≥ tileDistPad, and
//     arccos(cos θ − ε′) ≤ θ + √(2ε′) ≤ θ + 1.5e-3 < θ + tileAngPad.
const (
	tileDistPad = 1e-3
	tileAngPad  = 2e-3
)

// tileDevices lists, in ascending index order, every device that could pass
// tryDevice's exact eligibility gates from some position within slack of
// center — the conservative per-tile device prefilter memoized by
// Viewpoint.AuxDevices. A device is skipped only when the whole tile
// envelope provably fails the charging-range annulus or lies outside the
// device's (padded) receiving sector.
func (c *eligibleCache) tileDevices(center geom.Vec, slack float64) []int32 {
	sc := c.sc
	ct := c.ct
	out := make([]int32, 0, len(sc.Devices))
	for j := range sc.Devices {
		dev := &sc.Devices[j]
		delta := dev.Pos.Sub(center)
		dc := delta.Len()
		if dc-slack > ct.DMax+geom.Eps+tileDistPad || dc+slack < ct.DMin-geom.Eps-tileDistPad {
			continue
		}
		dt := &sc.DeviceTypes[dev.Type]
		if dt.Alpha < 2*math.Pi-geom.Eps && dc > slack+tileDistPad {
			// Directions device→position across the tile deviate from the
			// device→center direction by at most asin(slack/dc).
			spread := math.Asin(math.Min(1, slack/dc))
			if geom.AbsAngleDiff(delta.Neg().Angle(), dev.Orient) > dt.Alpha/2+spread+tileAngPad {
				continue
			}
		}
		out = append(out, int32(j))
	}
	return out
}

// getEl / putEl pool the per-position eligibility slices. A slice is
// returned to the pool by sweepPointAppend once its contents have been
// copied into candidate Covers.
func (c *eligibleCache) getEl() (out []eligible, reused bool) {
	if v := c.elPool.Get(); v != nil {
		return (*v.(*[]eligible))[:0], true
	}
	return nil, false
}

func (c *eligibleCache) putEl(el []eligible) {
	if cap(el) == 0 {
		return
	}
	c.elPool.Put(&el)
}

// at returns the devices that a charger of this type at position p could
// charge under some orientation: distance within [DMin, DMax], p inside
// the device's receiving sector, and clear line of sight, in ascending
// device order with their approximated powers.
func (c *eligibleCache) at(p geom.Vec) []eligible {
	los, batched, reuse := 0, 0, 0
	ct := c.ct
	// Squared charging-range gates with the ±geom.Eps tolerances baked in.
	dmin2 := (ct.DMin - geom.Eps) * (ct.DMin - geom.Eps)
	if ct.DMin < geom.Eps {
		dmin2 = 0
	}
	dmax2 := (ct.DMax + geom.Eps) * (ct.DMax + geom.Eps)
	var vp *visindex.Viewpoint
	if c.vpg != nil {
		vp = c.vpg.At(p)
	}
	out, outReused := c.getEl()
	if outReused {
		reuse++
	}
	if vp != nil {
		// Tile-pruned scan: the per-tile device prefilter is computed once
		// per viewpoint tile and shared by every position swept inside it,
		// in ascending index order like the full scan.
		aux, ok := vp.AuxDevices()
		if !ok {
			center, slack := vp.Envelope()
			aux = vp.SetAuxDevices(c.tileDevices(center, slack))
		}
		for _, j := range aux {
			out, los, batched = c.tryDevice(out, int(j), p, dmin2, dmax2, vp, los, batched)
		}
	} else {
		// Grid-pruned scan: only devices whose cell overlaps the d_max disk
		// around p, visited in ascending index order like the full scan.
		var maskBuf [4]uint64
		mask := maskBuf[:min(c.dgrid.Words(), len(maskBuf))]
		if w := c.dgrid.Words(); w > len(maskBuf) {
			mask = make([]uint64, w)
		}
		c.dgrid.CollectDisk(p, ct.DMax+prunePad, mask)
		for w, m := range mask {
			for ; m != 0; m &= m - 1 {
				j := w*64 + bits.TrailingZeros64(m)
				out, los, batched = c.tryDevice(out, j, p, dmin2, dmax2, vp, los, batched)
			}
		}
	}
	c.tracer.Add(hipotrace.CtrLOSQueries, int64(los))
	c.tracer.Add(hipotrace.CtrLOSBatched, int64(batched))
	c.tracer.Add(hipotrace.CtrPoolReuse, int64(reuse))
	return out
}

// tryDevice applies the exact eligibility predicates to device j and
// appends it to out when chargeable from p. It is the single predicate
// body behind both the tile- and grid-pruned scans, so the two paths can
// only differ in which provably-out-of-range devices they skip.
func (c *eligibleCache) tryDevice(out []eligible, j int, p geom.Vec, dmin2, dmax2 float64, vp *visindex.Viewpoint, los, batched int) ([]eligible, int, int) {
	sc := c.sc
	dev := &sc.Devices[j]
	delta := dev.Pos.Sub(p)
	d2 := delta.Len2()
	if d2 < dmin2 || d2 > dmax2 {
		return out, los, batched
	}
	d := math.Sqrt(d2)
	// Charger within the device's receiving sector (dot-product form;
	// the radial gate is already checked above).
	dt := &sc.DeviceTypes[dev.Type]
	if dt.Alpha < 2*math.Pi-geom.Eps {
		if d <= geom.Eps {
			return out, los, batched
		}
		back := delta.Neg() // device → charger
		if back.Dot(c.dirs[j]) < d*c.cosHalf[dev.Type]-geom.Eps*math.Max(1, d) {
			return out, los, batched
		}
	}
	los++
	if vp != nil {
		batched++
		if !vp.LineOfSightTo(j, p) {
			return out, los, batched
		}
	} else if !sc.LineOfSight(p, dev.Pos) {
		return out, los, batched
	}
	pw := c.levels[dev.Type].Approx(d)
	if pw <= 0 {
		return out, los, batched
	}
	return append(out, eligible{device: j, theta: delta.Angle(), pw: pw}), los, batched
}

// SweepPoint implements Algorithm 1: it rotates a charger of type q at
// point p through 360° and returns one candidate per practical dominating
// coverage set. Orientations are chosen at the critical positions where a
// device is about to fall out of the charging sector.
func SweepPoint(sc *model.Scenario, q int, p geom.Vec, eps1 float64) []Candidate {
	return sweepPointAppend(sc, q, p, newEligibleCache(sc, q, eps1, nil), &sweepScratch{ar: &covArena{}}, nil)
}

// sweepScratch carries the per-block reusable state of the sweep: the
// orientation index scratch and the Covers arena. One scratch serves every
// position of a sweep block, so per-position allocations vanish entirely.
type sweepScratch struct {
	idx []int
	ar  *covArena
}

// sweepPointAppend is the Algorithm 1 sweep: it appends point p's
// candidates to buf and returns the extended slice. Eligibility slices are
// pooled, the index scratch is shared across a block, duplicate coverage
// sets are found by direct comparison with the candidates already admitted
// at p, and Covers are carved from the block's arena in device order.
func sweepPointAppend(sc *model.Scenario, q int, p geom.Vec, cache *eligibleCache, scr *sweepScratch, buf []Candidate) []Candidate {
	el := cache.at(p)
	if len(el) == 0 {
		cache.putEl(el)
		return buf
	}
	ct := sc.ChargerTypes[q]
	if ct.Alpha >= 2*math.Pi-geom.Eps {
		// Omnidirectional charger: a single strategy covers everything.
		scr.idx = allIdxInto(scr.idx, len(el))
		buf = append(buf, makeCandidate(p, 0, q, el, scr.idx, scr.ar))
		cache.putEl(el)
		return buf
	}
	half := ct.Alpha / 2

	// Device k is covered at orientation φ iff φ ∈ [θ_k − half, θ_k + half].
	// Maximal coverage sets occur just before a device falls out, i.e. at
	// φ = θ_k + half for some k (Algorithm 1 line 4).
	start := len(buf)
	idx := scr.idx
	for _, e := range el {
		phi := geom.NormAngle(e.theta + half)
		idx = idx[:0]
		for i, f := range el {
			if geom.AbsAngleDiff(phi, f.theta) <= half+geom.Eps {
				idx = append(idx, i)
			}
		}
		// First-wins dedup on the covered-device sequence, comparing against
		// already-admitted candidates directly (the sets here are tiny, so
		// this beats the byte-signature map it replaced without changing
		// which candidate survives).
		if hasSameCover(buf[start:], el, idx) {
			continue
		}
		buf = append(buf, makeCandidate(p, phi, q, el, idx, scr.ar))
	}
	scr.idx = idx[:0]
	cache.putEl(el)
	kept := filterLocalDominated(buf[start:])
	return buf[:start+len(kept)]
}

// hasSameCover reports whether some candidate already covers exactly the
// devices el[idx] lists (both sides ascending by device index).
func hasSameCover(cands []Candidate, el []eligible, idx []int) bool {
	for k := range cands {
		cv := cands[k].Covers
		if len(cv) != len(idx) {
			continue
		}
		same := true
		for m, i := range idx {
			if cv[m].Device != el[i].device {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

func allIdxInto(out []int, n int) []int {
	out = out[:0]
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}

func makeCandidate(p geom.Vec, phi float64, q int, el []eligible, idx []int, ar *covArena) Candidate {
	c := Candidate{S: model.Strategy{Pos: p, Orient: phi, Type: q}}
	cv := ar.alloc(len(idx))
	// el is built in ascending device order and idx ascends into el, so
	// Covers comes out sorted by device with no explicit sort.
	for m, i := range idx {
		cv[m] = DevPower{Device: el[i].device, Power: el[i].pw}
	}
	c.Covers = cv
	return c
}

// filterLocalDominated removes candidates at a single position whose device
// sets are strict subsets of another candidate's (powers at one position are
// identical per device, so set inclusion is the whole story here).
func filterLocalDominated(cands []Candidate) []Candidate {
	out := cands[:0]
	for i := range cands {
		dominated := false
		for j := range cands {
			if i == j {
				continue
			}
			// Signature dedup upstream guarantees distinct sets, so a
			// subset with strictly smaller cardinality is a strict subset.
			if len(cands[i].Covers) < len(cands[j].Covers) &&
				covered(cands[i].Covers, cands[j].Covers, math.Inf(1)) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, cands[i])
		}
	}
	return out
}

// covered reports whether b covers every device of a with at least a's
// power less slack (both sorted by device). An infinite slack tests the
// device sets alone.
func covered(a, b []DevPower, slack float64) bool {
	if len(a) > len(b) {
		return false
	}
	i := 0
	for _, x := range a {
		for i < len(b) && b[i].Device < x.Device {
			i++
		}
		if i >= len(b) || b[i].Device != x.Device || b[i].Power < x.Power-slack {
			return false
		}
	}
	return true
}

// Extract runs the full PDCS extraction for charger type q: candidate
// positions from internal/discretize, Algorithm 1 at each (parallelized
// over contiguous position chunks with cfg.Workers goroutines), then
// global dominance filtering (Algorithm 2 step 9) unless
// cfg.SkipDominanceFilter. Results are deterministic regardless of worker
// count: chunk outputs are reduced in position order.
//
//hipo:hotpath
func Extract(sc *model.Scenario, q int, cfg Config) []Candidate {
	kept, _ := pipeline(visindex.Ensure(sc), q, nil, cfg, nil, nil, nil)
	return kept
}

// typeLabel renders the charger-type span label used in trace breakdowns
// and pprof hipo_detail labels.
func typeLabel(q int) string { return fmt.Sprintf("type-%d", q) }

// Config tunes PDCS extraction.
type Config struct {
	// Eps1 is the approximation parameter ε₁ (Lemma 4.1).
	Eps1 float64
	// Workers bounds the goroutines sweeping candidate positions
	// (0 = GOMAXPROCS).
	Workers int
	// SkipDominanceFilter keeps dominated candidates (ablation).
	SkipDominanceFilter bool
	// Clock, when non-nil, supplies the timestamps behind the per-task
	// durations of DistStats (Algorithm 5's LPT simulation input). It is
	// injected by measurement harnesses (internal/expt) so the extraction
	// pipeline itself never reads the wall clock and stays deterministic;
	// with a nil Clock all reported durations are zero.
	Clock func() time.Time
	// Tracer, when non-nil, receives stage spans (discretize, pdcs) and the
	// pipeline counters of internal/hipotrace. Sweep hot paths count into
	// locals and flush per call; a nil Tracer costs nothing.
	Tracer *hipotrace.Tracer
}

// workers resolves the worker count (0 = GOMAXPROCS).
func (cfg Config) workers() int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// discretize is the position-generation configuration matching cfg.
func (cfg Config) discretize(workers int) discretize.Config {
	return discretize.Config{
		Eps1:    cfg.Eps1,
		Workers: workers,
		Tracer:  cfg.Tracer,
	}
}

// FilterDominated removes candidates that are dominated by another
// candidate of the same charger type: B dominates A when B covers every
// device A covers with at least A's power, and the two are not identical
// (ties keep the earlier candidate). Device bitsets accelerate the subset
// tests. no is the number of devices in the scenario.
func FilterDominated(cands []Candidate, no int) []Candidate {
	n := len(cands)
	if n <= 1 {
		return cands
	}
	words := (no + 63) / 64
	bits := make([][]uint64, n)
	total := make([]float64, n)
	for i := range cands {
		bits[i] = make([]uint64, words)
		for _, dp := range cands[i].Covers {
			bits[i][dp.Device/64] |= 1 << (uint(dp.Device) % 64)
		}
		total[i] = cands[i].TotalPower()
	}
	// Sort candidate order by decreasing total power so likely dominators
	// come first; dominance can only come from candidates with ≥ total
	// power (since powers are componentwise ≥). The sort is stable so that
	// equal-total ties resolve by input position — the invariant the
	// streaming reducer's drop rules are proved against, which also makes
	// the survivor choice within mutual-domination classes input-order
	// deterministic rather than an artifact of the sorting algorithm.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return total[order[a]] > total[order[b]] })

	keep := make([]bool, n)
	var kept []int
	for _, i := range order {
		dominated := false
		for _, k := range kept {
			if total[k] < total[i]-1e-15 {
				break // sorted: no later kept candidate can dominate
			}
			if i == k || !bitsSubset(bits[i], bits[k]) {
				continue
			}
			// Strategies of different charger types occupy different matroid
			// partitions and never dominate one another.
			if cands[i].S.Type == cands[k].S.Type && covered(cands[i].Covers, cands[k].Covers, 1e-15) {
				dominated = true
				break
			}
		}
		if !dominated {
			keep[i] = true
			kept = append(kept, i)
		}
	}
	out := cands[:0]
	for i := range cands {
		if keep[i] {
			out = append(out, cands[i])
		}
	}
	return out
}

func bitsSubset(a, b []uint64) bool {
	for w := range a {
		if a[w]&^b[w] != 0 {
			return false
		}
	}
	return true
}

// ExtractAll runs Extract for every charger type and returns the per-type
// candidate sets, the ground set of the partition matroid of Section 4.3.
//
//hipo:hotpath
func ExtractAll(sc *model.Scenario, cfg Config) [][]Candidate {
	out := make([][]Candidate, len(sc.ChargerTypes))
	for q := range sc.ChargerTypes {
		out[q] = Extract(sc, q, cfg)
	}
	return out
}
