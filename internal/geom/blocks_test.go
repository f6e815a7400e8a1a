package geom

import (
	"math"
	"testing"
)

// blocksSegmentTwoPass is the blocking predicate as it stood before the
// crossing scan and the contact sampling were fused into one pass over the
// edges, kept verbatim as the differential reference for
// FuzzBlocksSegmentOnePass.
func blocksSegmentTwoPass(p Polygon, s Segment, edges []Segment, lo, hi Vec) bool {
	if s.Dir().Len2() <= 4*Eps*Eps && s.Len() <= Eps {
		return false
	}
	if (s.A.X < lo.X-Eps && s.B.X < lo.X-Eps) || (s.A.X > hi.X+Eps && s.B.X > hi.X+Eps) ||
		(s.A.Y < lo.Y-Eps && s.B.Y < lo.Y-Eps) || (s.A.Y > hi.Y+Eps && s.B.Y > hi.Y+Eps) {
		return false
	}
	for _, e := range edges {
		if SegmentsCrossInterior(s, e) {
			return true
		}
	}
	return interiorSampleBlockedTwoPass(p, s, edges)
}

func interiorSampleBlockedTwoPass(p Polygon, s Segment, edges []Segment) bool {
	var tsBuf [12]float64
	ts := append(tsBuf[:0], 0, 1)
	d := s.Dir()
	l2 := d.Len2()
	if l2 <= 0 {
		return p.containsInterior(s.A)
	}
	for _, e := range edges {
		if q, ok := SegmentIntersection(s, e); ok {
			t := q.Sub(s.A).Dot(d) / l2
			ts = append(ts, math.Max(0, math.Min(1, t)))
		}
	}
	sortFloats(ts)
	for i := 0; i+1 < len(ts); i++ {
		if ts[i+1]-ts[i] < 1e-9 {
			continue
		}
		mid := s.At((ts[i] + ts[i+1]) / 2)
		if p.containsInterior(mid) {
			return true
		}
	}
	return false
}

// onePassPolygons are the fuzz target's obstacles: convex and concave, with
// collinear runs of edges, and one with more contacts than the stack
// buffer holds.
var onePassPolygons = []Polygon{
	Rect(0, 0, 1, 1),
	Poly(V(0, 0), V(4, 0), V(4, 4), V(2, 1), V(0, 4)),                            // concave notch
	Poly(V(0, 0), V(1, 0), V(2, 0), V(2, 2), V(1, 2), V(0, 2)),                   // collinear vertices
	Poly(V(0, 0), V(3, 0), V(3, 1), V(1, 1), V(1, 2), V(3, 2), V(3, 3), V(0, 3)), // C shape
	RegularPolygon(V(5, 5), 2, 16, 0.1),
	comb(8),
}

// comb is a polygon with n teeth; a horizontal segment along y = 1 grazes
// its n+1 valley vertices, two edge contacts each, more than the
// predicate's stack buffer holds.
func comb(n int) Polygon {
	vs := []Vec{V(0, 0), V(float64(2*n), 0)}
	for i := n; i > 0; i-- {
		vs = append(vs, V(float64(2*i), 1), V(float64(2*i-1), 2))
	}
	return Poly(append(vs, V(0, 1))...)
}

// FuzzBlocksSegmentOnePass checks the one-pass blocking predicate, both
// through BlocksSegmentEdgesBB (cached edges and box) and BlocksSegment
// (vertex walk), against the two-pass reference. mode shapes the segment:
// 0 free endpoints, 1 start on vertex i, 2 from vertex i to vertex j
// (grazing), 3 collinear with edge i (scaled by the two free parameters
// along it), 4 zero length.
func FuzzBlocksSegmentOnePass(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), -1.0, 0.5, 2.0, 0.5)   // through the square
	f.Add(uint8(0), uint8(3), uint8(1), uint8(2), 0.2, 1.0, 0.8, 1.0)    // along the square's top edge
	f.Add(uint8(3), uint8(0), uint8(2), uint8(0), 0.2, 0.0, 0.8, 0.0)    // inside edge 2, collinear
	f.Add(uint8(3), uint8(2), uint8(1), uint8(0), -0.5, 0.0, 1.5, 0.0)   // collinear vertices, overlapping
	f.Add(uint8(2), uint8(0), uint8(0), uint8(2), 0.0, 0.0, 0.0, 0.0)    // diagonal, vertex to vertex
	f.Add(uint8(2), uint8(1), uint8(2), uint8(4), 0.0, 0.0, 0.0, 0.0)    // across the notch
	f.Add(uint8(1), uint8(3), uint8(5), uint8(0), 2.0, 2.5, 0.0, 0.0)    // from an inner corner
	f.Add(uint8(4), uint8(4), uint8(0), uint8(0), 5.0, 5.0, 0.0, 0.0)    // zero length inside
	f.Add(uint8(0), uint8(5), uint8(0), uint8(0), -1.0, 1.0, 17.0, 1.0)  // grazes every tooth
	f.Add(uint8(0), uint8(4), uint8(0), uint8(0), 2.9, 2.9, 7.1, 7.1)    // through the 16-gon
	f.Add(uint8(0), uint8(4), uint8(0), uint8(0), 3.05, 3.05, 3.2, 3.06) // in the box, off the 16-gon
	f.Add(uint8(1), uint8(0), uint8(0), uint8(0), 1e-10, 0.0, 0.0, 0.0)  // near-degenerate at a vertex
	f.Fuzz(func(t *testing.T, mode, poly, i, j uint8, ax, ay, bx, by float64) {
		p := onePassPolygons[int(poly)%len(onePassPolygons)]
		n := len(p.Vertices)
		vi, vj := p.Vertices[int(i)%n], p.Vertices[int(j)%n]
		a := V(boundedCoord(ax), boundedCoord(ay))
		b := V(boundedCoord(bx), boundedCoord(by))
		var s Segment
		switch mode % 5 {
		case 0:
			s = Seg(a, b)
		case 1:
			s = Seg(vi, b)
		case 2:
			s = Seg(vi, vj)
		case 3:
			e := p.Edge(int(i) % n)
			s = Seg(e.At(a.X), e.At(b.X))
		default:
			s = Seg(a, a)
		}
		edges := p.Edges()
		lo, hi := p.BoundingBox()
		want := blocksSegmentTwoPass(p, s, edges, lo, hi)
		if got := p.BlocksSegmentEdgesBB(s, edges, lo, hi); got != want {
			t.Fatalf("BlocksSegmentEdgesBB(%v) on %v = %v, two-pass reference %v", s, p.Vertices, got, want)
		}
		if got := p.BlocksSegment(s); got != want {
			t.Fatalf("BlocksSegment(%v) on %v = %v, two-pass reference %v", s, p.Vertices, got, want)
		}
	})
}

// TestPolygonPredicatesAllocFree pins the per-query predicates at zero
// allocations: they walk vertex pairs or the caller's cached edges instead
// of building an edge list. The polygon has more vertices than the
// contact buffer's capacity; none of the segments touches the boundary
// more than twice.
func TestPolygonPredicatesAllocFree(t *testing.T) {
	p := RegularPolygon(V(5, 5), 2, 16, 0.1)
	edges := p.Edges()
	lo, hi := p.BoundingBox()
	cases := []struct {
		name string
		fn   func() bool
	}{
		{"OnBoundary/inside", func() bool { return p.OnBoundary(V(5, 5)) }},
		{"OnBoundary/outside", func() bool { return p.OnBoundary(V(9, 9)) }},
		{"OnBoundary/on", func() bool { return p.OnBoundary(p.Vertices[3]) }},
		{"ContainsInterior/inside", func() bool { return p.ContainsInterior(V(5.5, 4.5)) }},
		{"ContainsInterior/outside", func() bool { return p.ContainsInterior(V(3.05, 3.05)) }},
		{"IntersectsSegment", func() bool { return p.IntersectsSegment(Seg(V(0, 0), V(1, 9))) }},
		{"BlocksSegmentEdgesBB/through", func() bool { return p.BlocksSegmentEdgesBB(Seg(V(2, 2), V(8, 8)), edges, lo, hi) }},
		{"BlocksSegmentEdgesBB/inBoxMiss", func() bool {
			return p.BlocksSegmentEdgesBB(Seg(V(3.05, 3.05), V(3.2, 3.06)), edges, lo, hi)
		}},
		{"BlocksSegmentEdgesBB/inside", func() bool { return p.BlocksSegmentEdgesBB(Seg(V(4.5, 5), V(5.5, 5)), edges, lo, hi) }},
		{"BlocksSegmentEdgesBB/far", func() bool { return p.BlocksSegmentEdgesBB(Seg(V(20, 20), V(30, 21)), edges, lo, hi) }},
		{"BlocksSegment/through", func() bool { return p.BlocksSegment(Seg(V(2, 2), V(8, 8))) }},
		{"BlocksSegment/inBoxMiss", func() bool { return p.BlocksSegment(Seg(V(3.05, 3.05), V(3.2, 3.06))) }},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(100, func() { c.fn() }); allocs != 0 {
			t.Errorf("%s: %v allocs per call, want 0", c.name, allocs)
		}
	}
}
