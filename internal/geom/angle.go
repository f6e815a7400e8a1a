package geom

import "math"

// NormAngle maps theta into [0, 2π).
func NormAngle(theta float64) float64 {
	t := theta
	if t <= -2*math.Pi || t >= 2*math.Pi {
		t = math.Mod(t, 2*math.Pi)
	} // else Mod is the exact identity (|t| < 2π), so skipping it changes no bit
	if t < 0 {
		t += 2 * math.Pi
	}
	return t
}

// AngleDiff returns the signed smallest rotation from a to b, in (−π, π].
func AngleDiff(a, b float64) float64 {
	d := b - a
	if d <= -2*math.Pi || d >= 2*math.Pi {
		d = math.Mod(d, 2*math.Pi)
	} // else Mod is the exact identity (|d| < 2π), so skipping it changes no bit
	if d > math.Pi {
		d -= 2 * math.Pi
	}
	if d <= -math.Pi {
		d += 2 * math.Pi
	}
	return d
}

// AbsAngleDiff returns the unsigned smallest rotation between a and b, in
// [0, π].
func AbsAngleDiff(a, b float64) float64 { return math.Abs(AngleDiff(a, b)) }

// Interval is a counterclockwise angular interval [Lo, Hi] on the circle.
// Lo is normalized to [0, 2π); Hi may exceed 2π to represent wrap-around,
// with Hi − Lo ≤ 2π. A full circle is represented with Hi = Lo + 2π.
type Interval struct {
	Lo, Hi float64
}

// NewInterval builds the counterclockwise interval from lo to hi. If the
// normalized hi is not ahead of lo, it is pushed forward by 2π, so
// NewInterval(3π/2, π/2) spans the upper half circle through angle 0.
func NewInterval(lo, hi float64) Interval {
	l := NormAngle(lo)
	h := NormAngle(hi)
	if h < l {
		h += 2 * math.Pi
	}
	return Interval{l, h}
}

// FullCircle returns the interval covering the entire circle.
func FullCircle() Interval { return Interval{0, 2 * math.Pi} }

// Width returns the angular width of the interval.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Contains reports whether theta lies in the interval (ends inclusive
// within Eps).
func (iv Interval) Contains(theta float64) bool {
	if iv.Width() >= 2*math.Pi-Eps {
		return true
	}
	t := NormAngle(theta)
	if t >= iv.Lo-Eps && t <= iv.Hi+Eps {
		return true
	}
	// Account for the wrapped copy.
	t += 2 * math.Pi
	return t >= iv.Lo-Eps && t <= iv.Hi+Eps
}

// Mid returns the midpoint angle of the interval, normalized.
func (iv Interval) Mid() float64 { return NormAngle((iv.Lo + iv.Hi) / 2) }

// IntervalSet is a union of angular intervals with set operations. It is the
// workhorse for obstacle shadow ("hole") computation in Section 4.1.2 and
// the rotating sweep of Algorithm 1.
type IntervalSet struct {
	ivs []Interval // pairwise disjoint, sorted by Lo, each width ≤ 2π
}

// Add inserts iv into the set, merging overlaps.
func (s *IntervalSet) Add(iv Interval) {
	if iv.Width() <= 0 {
		return
	}
	if iv.Width() >= 2*math.Pi-Eps {
		s.ivs = []Interval{FullCircle()}
		return
	}
	// Split wrap-around intervals into at most two linear pieces on [0, 2π).
	pieces := splitWrap(iv)
	for _, p := range pieces {
		s.addLinear(p)
	}
}

func splitWrap(iv Interval) []Interval {
	if iv.Hi <= 2*math.Pi {
		return []Interval{iv}
	}
	return []Interval{{iv.Lo, 2 * math.Pi}, {0, iv.Hi - 2*math.Pi}}
}

func (s *IntervalSet) addLinear(iv Interval) {
	out := s.ivs[:0:0]
	inserted := false
	for _, e := range s.ivs {
		switch {
		case e.Hi < iv.Lo-Eps:
			out = append(out, e)
		case iv.Hi < e.Lo-Eps:
			if !inserted {
				out = append(out, iv)
				inserted = true
			}
			out = append(out, e)
		default: // overlap: merge into iv and keep scanning
			iv.Lo = math.Min(iv.Lo, e.Lo)
			iv.Hi = math.Max(iv.Hi, e.Hi)
		}
	}
	if !inserted {
		out = append(out, iv)
	}
	s.ivs = out
}

// Covers reports whether theta is covered by the set.
func (s *IntervalSet) Covers(theta float64) bool {
	t := NormAngle(theta)
	for _, iv := range s.ivs {
		if t >= iv.Lo-Eps && t <= iv.Hi+Eps {
			return true
		}
	}
	return false
}

// CoversAll reports whether the set covers the full circle.
func (s *IntervalSet) CoversAll() bool {
	total := 0.0
	for _, iv := range s.ivs {
		total += iv.Width()
	}
	if total < 2*math.Pi-1e-6 {
		return false
	}
	// Check contiguity: sorted disjoint intervals summing to ≥2π−eps that
	// start at ~0 and end at ~2π with no gaps.
	cur := 0.0
	for _, iv := range s.ivs {
		if iv.Lo > cur+1e-6 {
			return false
		}
		if iv.Hi > cur {
			cur = iv.Hi
		}
	}
	return cur >= 2*math.Pi-1e-6
}

// Intervals returns the disjoint intervals in the set, sorted by Lo.
func (s *IntervalSet) Intervals() []Interval {
	out := make([]Interval, len(s.ivs))
	copy(out, s.ivs)
	return out
}

// Complement returns the intervals of the circle not covered by the set.
func (s *IntervalSet) Complement() []Interval {
	if len(s.ivs) == 0 {
		return []Interval{FullCircle()}
	}
	var out []Interval
	cur := 0.0
	for _, iv := range s.ivs {
		if iv.Lo > cur+Eps {
			out = append(out, Interval{cur, iv.Lo})
		}
		if iv.Hi > cur {
			cur = iv.Hi
		}
	}
	if cur < 2*math.Pi-Eps {
		out = append(out, Interval{cur, 2 * math.Pi})
	}
	return out
}
