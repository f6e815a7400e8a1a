package geom

import "math"

// Circle is the circle centered at C with radius R.
type Circle struct {
	C Vec
	R float64
}

// ContainsPoint reports whether p lies inside or on the circle (within Eps).
func (c Circle) ContainsPoint(p Vec) bool {
	return c.C.Dist(p) <= c.R+Eps
}

// OnBoundary reports whether p lies on the circle boundary within tol.
func (c Circle) OnBoundary(p Vec, tol float64) bool {
	return math.Abs(c.C.Dist(p)-c.R) <= tol
}

// PointAt returns the boundary point at polar angle theta.
func (c Circle) PointAt(theta float64) Vec {
	return c.C.Add(FromAngle(theta).Scale(c.R))
}

// CircleCircleIntersections returns the intersection points of two circles
// (0, 1, or 2 points). Coincident circles report no points.
func CircleCircleIntersections(a, b Circle) []Vec {
	d := a.C.Dist(b.C)
	if d <= Eps {
		return nil // concentric (or coincident): no isolated intersections
	}
	if d > a.R+b.R+Eps || d < math.Abs(a.R-b.R)-Eps {
		return nil
	}
	// Distance from a.C to the radical line along the center line.
	x := (d*d + a.R*a.R - b.R*b.R) / (2 * d)
	h2 := a.R*a.R - x*x
	if h2 < 0 {
		h2 = 0
	}
	h := math.Sqrt(h2)
	dir := b.C.Sub(a.C).Scale(1 / d)
	mid := a.C.Add(dir.Scale(x))
	if h <= Eps {
		return []Vec{mid}
	}
	off := dir.Perp().Scale(h)
	return []Vec{mid.Add(off), mid.Sub(off)}
}

// CircleSegmentIntersections returns the points where circle c meets the
// closed segment s (0, 1, or 2 points).
func CircleSegmentIntersections(c Circle, s Segment) []Vec {
	d := s.Dir()
	f := s.A.Sub(c.C)
	aa := d.Len2()
	if aa < Eps*Eps {
		if c.OnBoundary(s.A, Eps) {
			return []Vec{s.A}
		}
		return nil
	}
	bb := 2 * f.Dot(d)
	cc := f.Len2() - c.R*c.R
	disc := bb*bb - 4*aa*cc
	if disc < 0 {
		// Allow a tangency within tolerance.
		if disc > -Eps*math.Max(1, aa) {
			disc = 0
		} else {
			return nil
		}
	}
	sq := math.Sqrt(disc)
	var out []Vec
	const tol = 1e-9
	for _, t := range []float64{(-bb - sq) / (2 * aa), (-bb + sq) / (2 * aa)} {
		if t < -tol || t > 1+tol {
			continue
		}
		p := s.At(math.Max(0, math.Min(1, t)))
		dup := false
		for _, q := range out {
			if q.Eq(p) {
				dup = true
			}
		}
		if !dup {
			out = append(out, p)
		}
	}
	return out
}

// CircleLineIntersections returns the points where circle c meets the
// infinite line through a and b.
func CircleLineIntersections(c Circle, a, b Vec) []Vec {
	d := b.Sub(a)
	f := a.Sub(c.C)
	aa := d.Len2()
	if aa < Eps*Eps {
		return nil
	}
	bb := 2 * f.Dot(d)
	cc := f.Len2() - c.R*c.R
	disc := bb*bb - 4*aa*cc
	if disc < 0 {
		return nil
	}
	sq := math.Sqrt(disc)
	t1 := (-bb - sq) / (2 * aa)
	t2 := (-bb + sq) / (2 * aa)
	p1 := Lerp(a, b, t1)
	if sq <= Eps {
		return []Vec{p1}
	}
	return []Vec{p1, Lerp(a, b, t2)}
}

// InscribedArcCircles returns the two circles through points a and b on
// which a chord ab subtends an inscribed (circumferential) angle of alpha
// radians, 0 < alpha < π. These are the loci used by Algorithm 2 step 5:
// every point on the major arc of each circle sees ab under angle alpha.
// If a and b coincide (within Eps) no circle exists.
func InscribedArcCircles(a, b Vec, alpha float64) []Circle {
	d := a.Dist(b)
	if d <= Eps || alpha <= Eps || alpha >= math.Pi-Eps {
		// alpha = π degenerates to the segment ab itself.
		return nil
	}
	r := d / (2 * math.Sin(alpha))
	// Center offset from chord midpoint along the perpendicular.
	h2 := r*r - d*d/4
	if h2 < 0 {
		h2 = 0
	}
	h := math.Sqrt(h2)
	mid := Lerp(a, b, 0.5)
	n := b.Sub(a).Unit().Perp()
	return []Circle{
		{C: mid.Add(n.Scale(h)), R: r},
		{C: mid.Sub(n.Scale(h)), R: r},
	}
}
