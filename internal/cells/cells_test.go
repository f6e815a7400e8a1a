package cells

import (
	"math"
	"math/rand"
	"testing"

	"hipo/internal/discretize"
	"hipo/internal/geom"
	"hipo/internal/model"
	"hipo/internal/power"
	"hipo/internal/radial"
)

func cellScenario(obs ...model.Obstacle) *model.Scenario {
	return &model.Scenario{
		Region: model.Region{Min: geom.V(0, 0), Max: geom.V(40, 40)},
		ChargerTypes: []model.ChargerType{
			{Name: "c", Alpha: math.Pi / 2, DMin: 2, DMax: 10, Count: 1},
		},
		DeviceTypes: []model.DeviceType{{Name: "d", Alpha: math.Pi, PTh: 0.05}},
		Power:       [][]model.PowerParams{{{A: 100, B: 40}}},
		Devices: []model.Device{
			{Pos: geom.V(20, 20), Orient: 0, Type: 0},
		},
		Obstacles: obs,
	}
}

func TestDeviceCellsNoObstacles(t *testing.T) {
	sc := cellScenario()
	eps1 := 0.3
	cs := DeviceCells(sc, 0, 0, eps1)
	nBands := len(discretize.Radii(sc, 0, 0, eps1)) - 1
	// Without obstacles: one full cell per band, arc = receiving interval.
	if len(cs) != nBands {
		t.Fatalf("cells = %d, want %d", len(cs), nBands)
	}
	for _, c := range cs {
		if c.Partial {
			t.Error("no obstacles should produce no partial cells")
		}
		if math.Abs(c.Arc.Width()-math.Pi) > 1e-9 {
			t.Errorf("arc width = %v, want π", c.Arc.Width())
		}
		if c.Power <= 0 {
			t.Error("cell power must be positive")
		}
	}
	// Bands tile [DMin, DMax].
	if math.Abs(cs[0].R0-2) > 1e-9 || math.Abs(cs[len(cs)-1].R1-10) > 1e-9 {
		t.Errorf("band range [%v, %v]", cs[0].R0, cs[len(cs)-1].R1)
	}
}

func TestDeviceCellsWithObstacle(t *testing.T) {
	// A wall inside the receiving half (device faces +x): cells must split
	// around its shadow.
	sc := cellScenario(model.Obstacle{Shape: geom.Rect(24, 18, 26, 22)})
	cs := DeviceCells(sc, 0, 0, 0.3)
	clear := DeviceCells(cellScenario(), 0, 0, 0.3)
	if len(cs) <= len(clear) {
		t.Errorf("obstacle should create more cells: %d vs %d", len(cs), len(clear))
	}
	foundPartial := false
	for _, c := range cs {
		if c.Partial {
			foundPartial = true
		}
	}
	if !foundPartial {
		t.Error("wall crossing a band should yield partial cells")
	}
}

// Property: feasible points are covered by exactly the cell matching their
// band and angle; infeasible points (blocked, out of range, out of sector)
// are in no cell.
func TestCellsPartitionFeasibleSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	sc := cellScenario(
		model.Obstacle{Shape: geom.Rect(24, 18, 26, 22)},
		model.Obstacle{Shape: geom.Poly(geom.V(22, 24), geom.V(25, 26), geom.V(21, 28))},
	)
	eps1 := 0.3
	cs := DeviceCells(sc, 0, 0, eps1)
	dev := sc.Devices[0]
	prof := radial.NewProfile(sc, dev.Pos)
	recv := geom.SectorRing{
		Apex: dev.Pos, Orient: dev.Orient,
		Alpha: sc.DeviceTypes[0].Alpha,
		RMin:  sc.ChargerTypes[0].DMin, RMax: sc.ChargerTypes[0].DMax,
	}
	for probe := 0; probe < 5000; probe++ {
		p := geom.V(rng.Float64()*40, rng.Float64()*40)
		feasible := recv.Contains(p) && sc.LineOfSight(p, dev.Pos) && sc.FeasiblePosition(p)
		// Skip points numerically near any cell boundary.
		if nearBoundary(sc, dev.Pos, p, cs) {
			continue
		}
		n := 0
		for i := range cs {
			if cs[i].Contains(dev.Pos, prof, p) {
				n++
			}
		}
		if feasible && n != 1 {
			t.Fatalf("feasible point %v in %d cells, want 1", p, n)
		}
		if !feasible && n != 0 {
			t.Fatalf("infeasible point %v in %d cells, want 0", p, n)
		}
	}
}

func nearBoundary(sc *model.Scenario, dev, p geom.Vec, cs []Cell) bool {
	const tol = 1e-3
	delta := p.Sub(dev)
	r := delta.Len()
	theta := delta.Angle()
	for i := range cs {
		if math.Abs(r-cs[i].R0) < tol || math.Abs(r-cs[i].R1) < tol {
			return true
		}
		if geom.AbsAngleDiff(theta, cs[i].Arc.Lo) < tol || geom.AbsAngleDiff(theta, cs[i].Arc.Hi) < tol {
			return true
		}
	}
	// Near any obstacle edge or the occlusion profile itself.
	for _, o := range sc.Obstacles {
		for _, e := range o.Shape.Edges() {
			if e.DistToPoint(p) < tol {
				return true
			}
			// Near the shadow boundary: the ray dev→p grazes an edge.
			if e.DistToPoint(dev) < tol {
				return true
			}
		}
		for _, v := range o.Shape.Vertices {
			if geom.AbsAngleDiff(theta, v.Sub(dev).Angle()) < tol {
				return true
			}
		}
	}
	return false
}

// Property: approximated power of the containing cell matches the
// piecewise-constant approximation at the point's distance.
func TestCellPowerMatchesApprox(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	sc := cellScenario(model.Obstacle{Shape: geom.Rect(24, 18, 26, 22)})
	eps1 := 0.3
	cs := DeviceCells(sc, 0, 0, eps1)
	dev := sc.Devices[0]
	prof := radial.NewProfile(sc, dev.Pos)
	pp := sc.Power[0][0]
	lv := power.NewLevels(pp.A, pp.B, 2, 10, eps1)
	checked := 0
	for probe := 0; probe < 3000 && checked < 300; probe++ {
		p := geom.V(rng.Float64()*40, rng.Float64()*40)
		for i := range cs {
			if cs[i].Contains(dev.Pos, prof, p) {
				d := p.Dist(dev.Pos)
				if math.Abs(lv.Approx(d)-cs[i].Power) > 1e-12 {
					t.Fatalf("cell power %v != approx %v at d=%v", cs[i].Power, lv.Approx(d), d)
				}
				checked++
				break
			}
		}
	}
	if checked < 100 {
		t.Fatalf("too few points landed in cells: %d", checked)
	}
}

func TestCountCellsWithinLemma44Scaling(t *testing.T) {
	sc := cellScenario(model.Obstacle{Shape: geom.Rect(24, 18, 26, 22)})
	eps1 := 0.3
	n := CountCells(sc, 0, eps1)
	if n == 0 {
		t.Fatal("no cells")
	}
	// The empirical count must sit far below the Lemma 4.4 bound (which is
	// a worst-case over all devices and obstacles).
	if bound := Lemma44Bound(sc, eps1); float64(n) > bound {
		t.Errorf("cell count %d exceeds Lemma 4.4 bound %v", n, bound)
	}
	// Finer eps1 cannot reduce the cell count.
	n2 := CountCells(sc, 0, 0.1)
	if n2 < n {
		t.Errorf("finer eps1 reduced cells: %d -> %d", n, n2)
	}
}

func TestOmnidirectionalReceiver(t *testing.T) {
	sc := cellScenario()
	sc.DeviceTypes[0].Alpha = 2 * math.Pi
	cs := DeviceCells(sc, 0, 0, 0.3)
	for _, c := range cs {
		if c.Arc.Width() < 2*math.Pi-1e-9 {
			t.Errorf("omnidirectional receiver arc = %v", c.Arc.Width())
		}
	}
}

func TestClipSegmentToDisk(t *testing.T) {
	disk := geom.Circle{C: geom.V(0, 0), R: 5}
	// Fully inside.
	if s, ok := clipSegmentToDisk(geom.Seg(geom.V(-1, 0), geom.V(1, 0)), disk); !ok || s.Len() != 2 {
		t.Error("inside segment should clip to itself")
	}
	// Crossing: clipped to a chord.
	s, ok := clipSegmentToDisk(geom.Seg(geom.V(-10, 0), geom.V(10, 0)), disk)
	if !ok || math.Abs(s.Len()-10) > 1e-9 {
		t.Errorf("crossing clip = %v, %v", s, ok)
	}
	// Outside entirely.
	if _, ok := clipSegmentToDisk(geom.Seg(geom.V(-10, 7), geom.V(10, 7)), disk); ok {
		t.Error("outside segment should not clip")
	}
	// One endpoint inside.
	s, ok = clipSegmentToDisk(geom.Seg(geom.V(0, 0), geom.V(10, 0)), disk)
	if !ok || math.Abs(s.Len()-5) > 1e-9 {
		t.Errorf("half clip = %v, %v", s, ok)
	}
}

// totalArea sums the areas of all feasible cells of device j under charger
// type q — by construction this equals the exact feasible placement area of
// radial.FeasibleAreaForDevice.
func totalArea(sc *model.Scenario, q, j int, eps1 float64) float64 {
	prof := radial.NewProfile(sc, sc.Devices[j].Pos)
	total := 0.0
	for _, c := range DeviceCells(sc, q, j, eps1) {
		total += c.Area(prof)
	}
	return total
}

// Property: the cell decomposition tiles the feasible region exactly — the
// summed cell areas equal the analytic feasible-area integral of
// internal/radial, with and without obstacles.
func TestCellAreasSumToFeasibleArea(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 8; trial++ {
		var obs []model.Obstacle
		for k := 0; k < rng.Intn(3); k++ {
			c := geom.V(14+rng.Float64()*14, 12+rng.Float64()*14)
			obs = append(obs, model.Obstacle{
				Shape: geom.RandomSimplePolygon(rng, c, 0.8, 2.5, 3+rng.Intn(5)),
			})
		}
		sc := cellScenario(obs...)
		sc.Devices[0].Orient = rng.Float64() * 2 * math.Pi
		if !sc.FeasiblePosition(sc.Devices[0].Pos) {
			continue
		}
		cellSum := totalArea(sc, 0, 0, 0.3)
		analytic := radial.FeasibleAreaForDevice(sc, 0, 0)
		// The analytic integral's panels are bounded by obstacle-vertex
		// events, but the min(R1, ρ) kink where ρ crosses a band radius
		// falls inside a panel, so Simpson carries an O(h²) error there;
		// the cell sum integrates each smooth piece separately and is the
		// more accurate of the two. Agreement to 0.2% validates both.
		tol := 2e-3 * math.Max(1, analytic)
		if math.Abs(cellSum-analytic) > tol {
			t.Fatalf("trial %d: cell areas %v != analytic %v", trial, cellSum, analytic)
		}
	}
}
