package geom

import (
	"math"
	"math/rand"
)

// RandomSimplePolygon generates a random simple (non-self-intersecting)
// polygon with n vertices around center c: a star-shaped construction with
// random angular spacing and radii in [rMin, rMax]. Star-shaped polygons
// are always simple and can be arbitrarily spiky — a good model for the
// paper's "obstacles of arbitrary shapes".
func RandomSimplePolygon(rng *rand.Rand, c Vec, rMin, rMax float64, n int) Polygon {
	if n < 3 {
		n = 3
	}
	// Random angular gaps, normalized to 2π. Gaps are drawn from [0.6, 1.0]
	// so that no single normalized gap reaches π (max/total ≤ 1/(1+0.6·(n−1))
	// < 1/2 for n ≥ 3), which keeps c inside the polygon's kernel: the
	// result is genuinely star-shaped about c.
	gaps := make([]float64, n)
	total := 0.0
	for i := range gaps {
		gaps[i] = 0.6 + 0.4*rng.Float64()
		total += gaps[i]
	}
	vs := make([]Vec, n)
	theta := rng.Float64() * 2 * math.Pi
	for i := 0; i < n; i++ {
		//lint:ignore nanflow total is a sum of n >= 3 gaps each at least 0.6, so it is strictly positive
		theta += gaps[i] / total * 2 * math.Pi
		r := rMin + rng.Float64()*(rMax-rMin)
		vs[i] = c.Add(FromAngle(theta).Scale(r))
	}
	return Polygon{Vertices: vs}
}

// IsSimple reports whether the polygon has no two non-adjacent edges that
// intersect and no adjacent edges that overlap beyond their shared vertex.
// Quadratic; intended for test-time validation of generated obstacles.
func (p Polygon) IsSimple() bool {
	edges := p.Edges()
	n := len(edges)
	if n < 3 {
		return false
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			adjacent := j == i+1 || (i == 0 && j == n-1)
			if adjacent {
				// Adjacent edges share exactly one endpoint; any interior
				// crossing means a degenerate spike.
				if SegmentsCrossInterior(edges[i], edges[j]) {
					return false
				}
				continue
			}
			if SegmentsIntersect(edges[i], edges[j]) {
				return false
			}
		}
	}
	return true
}
