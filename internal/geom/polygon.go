package geom

import (
	"fmt"
	"math"
)

// Polygon is a simple polygon given by its vertices in order (either
// winding). The closing edge from the last vertex back to the first is
// implicit. Obstacles in HIPO are polygons of arbitrary shape (Section 3.1).
type Polygon struct {
	Vertices []Vec
}

// Poly builds a polygon from a vertex list.
func Poly(vs ...Vec) Polygon { return Polygon{Vertices: vs} }

// Validate returns an error if the polygon has fewer than three vertices or
// repeated consecutive vertices.
func (p Polygon) Validate() error {
	n := len(p.Vertices)
	if n < 3 {
		return fmt.Errorf("geom: polygon needs at least 3 vertices, got %d", n)
	}
	for i, v := range p.Vertices {
		w := p.Vertices[(i+1)%n]
		if v.Eq(w) {
			return fmt.Errorf("geom: polygon has coincident consecutive vertices at index %d", i)
		}
	}
	return nil
}

// Edges returns the polygon's edges including the closing edge.
func (p Polygon) Edges() []Segment {
	out := make([]Segment, len(p.Vertices))
	for i := range out {
		out[i] = p.Edge(i)
	}
	return out
}

// Edge returns edge i, Edges()[i], without building the edge list:
// per-query predicates walk vertex pairs through it and allocate nothing.
func (p Polygon) Edge(i int) Segment {
	j := i + 1
	if j == len(p.Vertices) {
		j = 0
	}
	return Segment{p.Vertices[i], p.Vertices[j]}
}

// Area returns the unsigned area of the polygon.
func (p Polygon) Area() float64 {
	return math.Abs(p.SignedArea())
}

// SignedArea returns the signed area (positive for counterclockwise
// winding).
func (p Polygon) SignedArea() float64 {
	n := len(p.Vertices)
	if n < 3 {
		return 0
	}
	s := 0.0
	for i := 0; i < n; i++ {
		a := p.Vertices[i]
		b := p.Vertices[(i+1)%n]
		s += a.Cross(b)
	}
	return s / 2
}

// Centroid returns the centroid of the polygon (vertex mean for degenerate
// polygons).
func (p Polygon) Centroid() Vec {
	a := p.SignedArea()
	n := len(p.Vertices)
	if math.Abs(a) < Eps || n < 3 {
		var c Vec
		for _, v := range p.Vertices {
			c = c.Add(v)
		}
		if n > 0 {
			c = c.Scale(1 / float64(n))
		}
		return c
	}
	var c Vec
	for i := 0; i < n; i++ {
		u := p.Vertices[i]
		w := p.Vertices[(i+1)%n]
		cr := u.Cross(w)
		c = c.Add(u.Add(w).Scale(cr))
	}
	return c.Scale(1 / (6 * a))
}

// ContainsPoint reports whether q is strictly inside or on the boundary of
// the polygon, using the even-odd (crossing) rule.
func (p Polygon) ContainsPoint(q Vec) bool {
	if p.OnBoundary(q) {
		return true
	}
	return p.containsInterior(q)
}

// ContainsInterior reports whether q is strictly inside the polygon (points
// on the boundary return false).
func (p Polygon) ContainsInterior(q Vec) bool {
	if p.OnBoundary(q) {
		return false
	}
	return p.containsInterior(q)
}

func (p Polygon) containsInterior(q Vec) bool {
	n := len(p.Vertices)
	inside := false
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		a := p.Vertices[i]
		b := p.Vertices[j]
		if (a.Y > q.Y) != (b.Y > q.Y) {
			xi := (b.X-a.X)*(q.Y-a.Y)/(b.Y-a.Y) + a.X
			if q.X < xi {
				inside = !inside
			}
		}
	}
	return inside
}

// OnBoundary reports whether q lies on an edge of the polygon within Eps.
func (p Polygon) OnBoundary(q Vec) bool {
	for i := range p.Vertices {
		if p.Edge(i).ContainsPoint(q) {
			return true
		}
	}
	return false
}

// IntersectsSegment reports whether segment s touches the polygon boundary
// or has an endpoint inside the polygon.
func (p Polygon) IntersectsSegment(s Segment) bool {
	for i := range p.Vertices {
		if SegmentsIntersect(p.Edge(i), s) {
			return true
		}
	}
	return p.containsInterior(s.A) || p.containsInterior(s.B)
}

// BlocksSegment reports whether the polygon blocks the open segment s: the
// segment passes through the polygon's interior, or runs along/through its
// boundary other than merely touching at the segment's own endpoints. This
// is the line-of-sight predicate of Equation (1): a charging ray that only
// grazes an obstacle corner is not blocked, while one entering the obstacle
// is.
func (p Polygon) BlocksSegment(s Segment) bool {
	lo, hi := p.BoundingBox()
	if !mayBlock(s, lo, hi) {
		return false
	}
	r := newBlockRay(s)
	var tsBuf [12]float64
	ts := append(tsBuf[:0], 0, 1)
	for i := range p.Vertices {
		var crosses bool
		if ts, crosses = r.meet(p.Edge(i), ts); crosses {
			return true
		}
	}
	return p.sampleBlocked(s, ts)
}

// BlocksSegmentEdgesBB is BlocksSegment evaluated against a caller-supplied
// edge list and bounding box, which must be exactly p.Edges() and
// p.BoundingBox(). Hot paths that test many segments against the same
// polygon (the visibility index walks, viewpoint batching) cache both, so
// the predicate allocates and recomputes nothing; the answer is identical
// to BlocksSegment by construction.
func (p Polygon) BlocksSegmentEdgesBB(s Segment, edges []Segment, lo, hi Vec) bool {
	if !mayBlock(s, lo, hi) {
		return false
	}
	r := newBlockRay(s)
	var tsBuf [12]float64
	ts := append(tsBuf[:0], 0, 1)
	for _, e := range edges {
		var crosses bool
		if ts, crosses = r.meet(e, ts); crosses {
			return true
		}
	}
	return p.sampleBlocked(s, ts)
}

// mayBlock screens out the segments no polygon with bounding box [lo, hi]
// can block: near-zero-length ones and those wholly beyond the box.
func mayBlock(s Segment, lo, hi Vec) bool {
	// Degenerate-segment guard. The Len2 screen is decisive when it fails:
	// computed |s|² > 4·Eps² forces the true length above ~2·Eps, so the
	// rounded Len() is certainly above Eps and the Hypot call can be skipped
	// without changing the branch taken. A segment that passes therefore
	// has |s|² > 0 (an underflowing |s|² means |s| ≤ Eps), so blockRay's
	// parameter division is well defined.
	if s.Dir().Len2() <= 4*Eps*Eps && s.Len() <= Eps {
		return false
	}
	// Cheap bounding-box rejection: line-of-sight tests dominate solver
	// time and most segments are nowhere near most obstacles. Each
	// conjunction is the branch-only form of max(A,B) < t / min(A,B) > t,
	// equivalent for every input including NaN (any NaN coordinate fails
	// both forms).
	return !((s.A.X < lo.X-Eps && s.B.X < lo.X-Eps) || (s.A.X > hi.X+Eps && s.B.X > hi.X+Eps) ||
		(s.A.Y < lo.Y-Eps && s.B.Y < lo.Y-Eps) || (s.A.Y > hi.Y+Eps && s.B.Y > hi.Y+Eps))
}

// blockRay is the per-segment state of the one-pass blocking scan: the
// direction, its squared length and its length, each computed once per
// segment instead of once per edge.
type blockRay struct {
	s       Segment
	d       Vec
	l2, len float64
}

func newBlockRay(s Segment) blockRay {
	d := s.Dir()
	return blockRay{s: s, d: d, l2: d.Len2(), len: d.Len()}
}

// meet tests one polygon edge. One intersection decides both questions
// the blocking predicate asks of the edge: whether the segment crosses it
// in the open interiors (SegmentsCrossInterior, including the collinear
// overlap case) and, when it does not, the clamped segment parameter of
// their contact point, appended to ts for the interior sampling.
func (r *blockRay) meet(e Segment, ts []float64) ([]float64, bool) {
	s := r.s
	q, ok := segmentIntersectionLen(s, e, r.len)
	if !ok {
		// Could still overlap collinearly; test interior overlap.
		return ts, orient(s.A, s.B, e.A) == 0 && orient(s.A, s.B, e.B) == 0 && collinearInteriorOverlap(s, e)
	}
	if !q.Eq(s.A) && !q.Eq(s.B) && !q.Eq(e.A) && !q.Eq(e.B) {
		return ts, true
	}
	//lint:ignore nanflow every caller runs mayBlock first, which rejects each segment whose |s|² is 0, so l2 is strictly positive
	t := q.Sub(s.A).Dot(r.d) / r.l2
	return append(ts, math.Max(0, math.Min(1, t))), false
}

// sampleBlocked finishes the blocking predicate once no edge is crossed in
// the open: the segment may still pass through the interior touching the
// boundary only at vertices (entering through one vertex and exiting
// through another), or lie entirely inside. ts holds 0, 1 and the
// parameter of every boundary contact; the midpoint of every sub-interval
// between them is tested for interior containment. The caller's stack
// buffer covers typical contact counts; append spills to the heap only for
// segments grazing many edges.
func (p Polygon) sampleBlocked(s Segment, ts []float64) bool {
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

func sortFloats(xs []float64) {
	// Insertion sort: the slices here have a handful of elements.
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}

// BoundingBox returns the axis-aligned bounding box of the polygon as
// (min, max) corners.
func (p Polygon) BoundingBox() (Vec, Vec) {
	if len(p.Vertices) == 0 {
		return Vec{}, Vec{}
	}
	lo := p.Vertices[0]
	hi := p.Vertices[0]
	for _, v := range p.Vertices[1:] {
		lo.X = math.Min(lo.X, v.X)
		lo.Y = math.Min(lo.Y, v.Y)
		hi.X = math.Max(hi.X, v.X)
		hi.Y = math.Max(hi.Y, v.Y)
	}
	return lo, hi
}

// Translate returns a copy of the polygon shifted by d.
func (p Polygon) Translate(d Vec) Polygon {
	vs := make([]Vec, len(p.Vertices))
	for i, v := range p.Vertices {
		vs[i] = v.Add(d)
	}
	return Polygon{Vertices: vs}
}

// Scale returns a copy of the polygon scaled by s about the origin.
func (p Polygon) Scale(s float64) Polygon {
	vs := make([]Vec, len(p.Vertices))
	for i, v := range p.Vertices {
		vs[i] = v.Scale(s)
	}
	return Polygon{Vertices: vs}
}

// Rect returns the axis-aligned rectangle with corners (x0,y0) and (x1,y1).
func Rect(x0, y0, x1, y1 float64) Polygon {
	return Poly(V(x0, y0), V(x1, y0), V(x1, y1), V(x0, y1))
}

// RegularPolygon returns the regular n-gon centered at c with circumradius
// r, first vertex at polar angle phase.
func RegularPolygon(c Vec, r float64, n int, phase float64) Polygon {
	vs := make([]Vec, n)
	for i := 0; i < n; i++ {
		theta := phase + 2*math.Pi*float64(i)/float64(n)
		vs[i] = c.Add(FromAngle(theta).Scale(r))
	}
	return Polygon{Vertices: vs}
}
