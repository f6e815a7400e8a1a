package visibility

import (
	"math"
	"math/rand"
	"testing"

	"hipo/internal/geom"
	"hipo/internal/model"
)

func scenarioWith(obs ...model.Obstacle) *model.Scenario {
	return &model.Scenario{
		Region:       model.Region{Min: geom.V(-50, -50), Max: geom.V(50, 50)},
		ChargerTypes: []model.ChargerType{{Name: "c", Alpha: math.Pi, DMin: 1, DMax: 10, Count: 1}},
		DeviceTypes:  []model.DeviceType{{Name: "d", Alpha: math.Pi, PTh: 0.05}},
		Power:        [][]model.PowerParams{{{A: 100, B: 40}}},
		Obstacles:    obs,
	}
}

func TestShadowIntervalsSquare(t *testing.T) {
	// Unit square centered at (5,0) as seen from the origin: shadow spans a
	// symmetric interval around angle 0.
	sq := geom.Rect(4.5, -0.5, 5.5, 0.5)
	s := ShadowIntervals(geom.V(0, 0), sq)
	if !s.Covers(0) {
		t.Error("direction straight at the square should be occluded")
	}
	half := math.Atan2(0.5, 4.5) // angle to the near corners
	if !s.Covers(half - 0.01) {
		t.Error("just inside corner angle should be occluded")
	}
	if s.Covers(half + 0.05) {
		t.Error("outside the corner angle should be clear")
	}
	if s.Covers(math.Pi) {
		t.Error("opposite direction should be clear")
	}
	// Total shadow width equals 2*atan2(0.5, 4.5).
	total := 0.0
	for _, iv := range s.Intervals() {
		total += iv.Width()
	}
	if math.Abs(total-2*half) > 1e-9 {
		t.Errorf("shadow width = %v, want %v", total, 2*half)
	}
}

func TestShadowIntervalsInsidePolygon(t *testing.T) {
	sq := geom.Rect(-1, -1, 1, 1)
	s := ShadowIntervals(geom.V(0, 0), sq)
	if !s.CoversAll() {
		t.Error("point inside polygon should see full shadow")
	}
}

func TestShadowMatchesRayCasting(t *testing.T) {
	// Property: for random polygons and directions, the shadow interval
	// agrees with explicit ray casting against the polygon edges.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		c := geom.V(5+rng.Float64()*10, rng.Float64()*10-5)
		poly := geom.RegularPolygon(c, 0.5+rng.Float64()*2, 3+rng.Intn(6), rng.Float64())
		p := geom.V(0, 0)
		if poly.ContainsPoint(p) {
			continue
		}
		s := ShadowIntervals(p, poly)
		for probe := 0; probe < 100; probe++ {
			theta := rng.Float64() * 2 * math.Pi
			hit := rayHitsPolygon(p, theta, poly)
			cov := s.Covers(theta)
			if hit != cov {
				// Tolerate disagreement only within Eps of a boundary angle.
				if nearBoundary(s, theta, 1e-6) {
					continue
				}
				t.Fatalf("trial %d: theta=%v ray hit=%v shadow=%v", trial, theta, hit, cov)
			}
		}
	}
}

func rayHitsPolygon(p geom.Vec, theta float64, poly geom.Polygon) bool {
	r := geom.Ray{Origin: p, Dir: geom.FromAngle(theta)}
	for _, e := range poly.Edges() {
		if _, _, ok := geom.RaySegmentIntersection(r, e); ok {
			return true
		}
	}
	return false
}

func nearBoundary(s *geom.IntervalSet, theta, tol float64) bool {
	for _, iv := range s.Intervals() {
		if geom.AbsAngleDiff(theta, iv.Lo) < tol || geom.AbsAngleDiff(theta, iv.Hi) < tol {
			return true
		}
	}
	return false
}

func TestHoleRays(t *testing.T) {
	sq := geom.Rect(4, -1, 6, 1)
	sc := scenarioWith(model.Obstacle{Shape: sq})
	rays := HoleRays(sc, geom.V(0, 0), 20)
	// From the origin, the two far corners (6,±1) are hidden behind the
	// square itself, so only the two near corners (4,±1) yield rays.
	if len(rays) != 2 {
		t.Fatalf("rays = %d, want 2", len(rays))
	}
	for _, r := range rays {
		if math.Abs(r.A.X-4) > 1e-9 || math.Abs(math.Abs(r.A.Y)-1) > 1e-9 {
			t.Errorf("ray starts at %v, want a near corner", r.A)
		}
		if math.Abs(r.B.Dist(geom.V(0, 0))-20) > 1e-9 {
			t.Errorf("ray end radius = %v, want 20", r.B.Dist(geom.V(0, 0)))
		}
	}
	// Radius smaller than obstacle distance: no rays.
	if rays := HoleRays(sc, geom.V(0, 0), 2); len(rays) != 0 {
		t.Errorf("out-of-range rays = %d", len(rays))
	}
}

func TestEventAnglesSorted(t *testing.T) {
	sc := scenarioWith(
		model.Obstacle{Shape: geom.Rect(4, -1, 6, 1)},
		model.Obstacle{Shape: geom.Rect(-6, 3, -4, 5)},
	)
	angles := EventAngles(sc, geom.V(0, 0))
	if len(angles) == 0 {
		t.Fatal("no event angles")
	}
	for i := 1; i < len(angles); i++ {
		if angles[i] < angles[i-1] {
			t.Fatal("event angles not sorted")
		}
	}
}

func TestEventAnglesDedupCoincidentVertices(t *testing.T) {
	// Two triangles whose apexes lie on the same ray from the viewpoint:
	// (2,2) and (4,4) are both at angle π/4 from the origin. The sorted
	// event-angle list must carry that angle exactly once.
	sc := scenarioWith(
		model.Obstacle{Shape: geom.Poly(geom.V(2, 2), geom.V(3, 2), geom.V(3, 3))},
		model.Obstacle{Shape: geom.Poly(geom.V(4, 4), geom.V(5, 4), geom.V(5, 5))},
	)
	angles := EventAngles(sc, geom.V(0, 0))
	hits := 0
	for i, a := range angles {
		if math.Abs(a-math.Pi/4) < geom.Eps {
			hits++
		}
		if i > 0 && angles[i]-angles[i-1] < geom.Eps {
			t.Fatalf("angles %d and %d are within Eps: %v, %v", i-1, i, angles[i-1], angles[i])
		}
	}
	if hits != 1 {
		t.Fatalf("coincident vertex angle π/4 appears %d times, want 1", hits)
	}
}

func TestDedupSortedAngles(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want []float64
	}{
		{"empty", nil, nil},
		{"single", []float64{1}, []float64{1}},
		{"exact duplicates", []float64{0, 0, 1, 1, 1, 2}, []float64{0, 1, 2}},
		{"near duplicates", []float64{1, 1 + geom.Eps/2, 2}, []float64{1, 2}},
		{"kept when apart", []float64{1, 1 + 2*geom.Eps, 2}, []float64{1, 1 + 2*geom.Eps, 2}},
		{"wraparound 0 vs 2π", []float64{0, 1, 2*math.Pi - geom.Eps/2}, []float64{0, 1}},
		{"no wraparound when apart", []float64{0, 1, 2*math.Pi - 2*geom.Eps},
			[]float64{0, 1, 2*math.Pi - 2*geom.Eps}},
	}
	for _, c := range cases {
		got := dedupSortedAngles(append([]float64(nil), c.in...))
		if len(got) != len(c.want) {
			t.Fatalf("%s: got %v, want %v", c.name, got, c.want)
		}
		for i := range got {
			// Dedup keeps first occurrences verbatim, so bit equality holds.
			if math.Float64bits(got[i]) != math.Float64bits(c.want[i]) {
				t.Fatalf("%s: got %v, want %v", c.name, got, c.want)
			}
		}
	}
}

func TestOccluded(t *testing.T) {
	sc := scenarioWith(model.Obstacle{Shape: geom.Rect(4, -1, 6, 1)})
	if sc.LineOfSight(geom.V(0, 0), geom.V(10, 0)) {
		t.Error("path through obstacle should be occluded")
	}
	if !sc.LineOfSight(geom.V(0, 0), geom.V(0, 10)) {
		t.Error("clear path should not be occluded")
	}
}

func TestShadowMultipleObstacles(t *testing.T) {
	sc := scenarioWith(
		model.Obstacle{Shape: geom.Rect(4, -1, 6, 1)},
		model.Obstacle{Shape: geom.Rect(-6, -1, -4, 1)},
	)
	s := Shadow(sc, geom.V(0, 0))
	if !s.Covers(0) || !s.Covers(math.Pi) {
		t.Error("both obstacle directions should be shadowed")
	}
	if s.Covers(math.Pi / 2) {
		t.Error("up direction should be clear")
	}
}
