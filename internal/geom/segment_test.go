package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestSegmentsIntersectBasic(t *testing.T) {
	cases := []struct {
		s, u Segment
		want bool
	}{
		{Seg(V(0, 0), V(2, 2)), Seg(V(0, 2), V(2, 0)), true},      // X crossing
		{Seg(V(0, 0), V(1, 0)), Seg(V(2, 0), V(3, 0)), false},     // collinear apart
		{Seg(V(0, 0), V(1, 0)), Seg(V(1, 0), V(2, 0)), true},      // touch endpoint
		{Seg(V(0, 0), V(1, 1)), Seg(V(0, 1), V(0.4, 0.6)), false}, // near miss
		{Seg(V(0, 0), V(2, 0)), Seg(V(1, 0), V(1, 5)), true},      // T junction
		{Seg(V(0, 0), V(2, 0)), Seg(V(0.5, 0), V(1.5, 0)), true},  // collinear overlap
	}
	for i, c := range cases {
		if got := SegmentsIntersect(c.s, c.u); got != c.want {
			t.Errorf("case %d: SegmentsIntersect = %v, want %v", i, got, c.want)
		}
	}
}

func TestSegmentIntersectionPoint(t *testing.T) {
	p, ok := SegmentIntersection(Seg(V(0, 0), V(2, 2)), Seg(V(0, 2), V(2, 0)))
	if !ok || !p.Eq(V(1, 1)) {
		t.Errorf("intersection = %v, %v", p, ok)
	}
	_, ok = SegmentIntersection(Seg(V(0, 0), V(1, 0)), Seg(V(0, 1), V(1, 1)))
	if ok {
		t.Error("parallel segments should not intersect")
	}
}

func TestSegmentsCrossInterior(t *testing.T) {
	// Proper crossing.
	if !SegmentsCrossInterior(Seg(V(0, 0), V(2, 2)), Seg(V(0, 2), V(2, 0))) {
		t.Error("proper crossing should count")
	}
	// Endpoint touch only.
	if SegmentsCrossInterior(Seg(V(0, 0), V(1, 1)), Seg(V(1, 1), V(2, 0))) {
		t.Error("endpoint touch should not count")
	}
	// T junction at interior of one but endpoint of other.
	if SegmentsCrossInterior(Seg(V(0, 0), V(2, 0)), Seg(V(1, 0), V(1, 5))) {
		t.Error("T junction at an endpoint should not count")
	}
	// Collinear interior overlap.
	if !SegmentsCrossInterior(Seg(V(0, 0), V(2, 0)), Seg(V(0.5, 0), V(1.5, 0))) {
		t.Error("collinear interior overlap should count")
	}
	// Collinear touching at endpoints only.
	if SegmentsCrossInterior(Seg(V(0, 0), V(1, 0)), Seg(V(1, 0), V(2, 0))) {
		t.Error("collinear endpoint touch should not count")
	}
}

func TestClosestPoint(t *testing.T) {
	s := Seg(V(0, 0), V(10, 0))
	if got := s.ClosestPoint(V(5, 3)); !got.Eq(V(5, 0)) {
		t.Errorf("ClosestPoint = %v", got)
	}
	if got := s.ClosestPoint(V(-5, 3)); !got.Eq(V(0, 0)) {
		t.Errorf("ClosestPoint clamps to A: %v", got)
	}
	if got := s.ClosestPoint(V(15, -3)); !got.Eq(V(10, 0)) {
		t.Errorf("ClosestPoint clamps to B: %v", got)
	}
	if got := s.DistToPoint(V(5, 3)); !almostEq(got, 3, 1e-12) {
		t.Errorf("DistToPoint = %v", got)
	}
}

func TestRaySegmentIntersection(t *testing.T) {
	r := Ray{Origin: V(0, 0), Dir: V(1, 0)}
	p, tt, ok := RaySegmentIntersection(r, Seg(V(5, -1), V(5, 1)))
	if !ok || !p.Eq(V(5, 0)) || !almostEq(tt, 5, 1e-9) {
		t.Errorf("ray hit = %v t=%v ok=%v", p, tt, ok)
	}
	// Behind the ray.
	_, _, ok = RaySegmentIntersection(r, Seg(V(-5, -1), V(-5, 1)))
	if ok {
		t.Error("segment behind ray origin should not hit")
	}
	// Parallel.
	_, _, ok = RaySegmentIntersection(r, Seg(V(0, 1), V(10, 1)))
	if ok {
		t.Error("parallel segment should not hit")
	}
}

// Property: if SegmentIntersection returns a point, that point is on both
// segments.
func TestSegmentIntersectionOnBoth(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	hits := 0
	for i := 0; i < 2000; i++ {
		s := Seg(randVec(rng, 10), randVec(rng, 10))
		u := Seg(randVec(rng, 10), randVec(rng, 10))
		if p, ok := SegmentIntersection(s, u); ok {
			hits++
			if s.DistToPoint(p) > 1e-6 || u.DistToPoint(p) > 1e-6 {
				t.Fatalf("intersection point %v not on both segments (%v, %v)",
					p, s.DistToPoint(p), u.DistToPoint(p))
			}
			if !SegmentsIntersect(s, u) {
				t.Fatalf("SegmentIntersection found a point but SegmentsIntersect says no")
			}
		}
	}
	if hits < 100 {
		t.Fatalf("too few random intersections (%d) — generator broken?", hits)
	}
}

// Property: SegmentsIntersect is symmetric.
func TestSegmentsIntersectSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		s := Seg(randVec(rng, 5), randVec(rng, 5))
		u := Seg(randVec(rng, 5), randVec(rng, 5))
		if SegmentsIntersect(s, u) != SegmentsIntersect(u, s) {
			t.Fatalf("asymmetry for %v, %v", s, u)
		}
	}
}

func randVec(rng *rand.Rand, scale float64) Vec {
	return V(rng.Float64()*scale, rng.Float64()*scale)
}

func TestSegmentAtMid(t *testing.T) {
	s := Seg(V(2, 2), V(4, 6))
	if got := s.Mid(); !got.Eq(V(3, 4)) {
		t.Errorf("Mid = %v", got)
	}
	if got := s.Len(); !almostEq(got, math.Sqrt(20), 1e-12) {
		t.Errorf("Len = %v", got)
	}
}
