package visibility

import (
	"math"
	"testing"

	"hipo/internal/geom"
	"hipo/internal/model"
)

func fuzzCoord(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e4)
}

// FuzzLineOfSight drives scenario line-of-sight with an arbitrary triangle
// obstacle and two arbitrary endpoints. The predicate must never panic,
// must be symmetric in its endpoints, and must agree with the obstacle's
// own segment-blocking predicate.
func FuzzLineOfSight(f *testing.F) {
	f.Add(2.0, 2.0, 6.0, 2.0, 4.0, 6.0, 0.0, 3.0, 9.0, 3.0)    // blocked crossing
	f.Add(2.0, 2.0, 6.0, 2.0, 4.0, 6.0, 0.0, 9.0, 9.0, 9.0)    // clear above
	f.Add(2.0, 2.0, 6.0, 2.0, 4.0, 6.0, 4.0, 3.0, 4.0, 3.0)    // degenerate segment inside
	f.Add(0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0)    // endpoints on vertices
	f.Add(1e-9, 0.0, 1.0, 1e-9, 0.5, 1.0, -1.0, 0.5, 2.0, 0.5) // sliver triangle
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, px, py, qx, qy float64) {
		tri := geom.Poly(
			geom.V(fuzzCoord(ax), fuzzCoord(ay)),
			geom.V(fuzzCoord(bx), fuzzCoord(by)),
			geom.V(fuzzCoord(cx), fuzzCoord(cy)),
		)
		if tri.Validate() != nil {
			return
		}
		sc := &model.Scenario{
			Region:    model.Region{Min: geom.V(-1e4, -1e4), Max: geom.V(1e4, 1e4)},
			Obstacles: []model.Obstacle{{Shape: tri}},
		}
		p := geom.V(fuzzCoord(px), fuzzCoord(py))
		q := geom.V(fuzzCoord(qx), fuzzCoord(qy))

		los := sc.LineOfSight(p, q)
		if los != sc.LineOfSight(q, p) {
			t.Fatalf("asymmetric line of sight: p=%v q=%v", p, q)
		}
		if tri.BlocksSegment(geom.Seg(p, q)) == los {
			t.Fatalf("LineOfSight disagrees with BlocksSegment: p=%v q=%v", p, q)
		}
		// A point always sees itself: the open segment is empty.
		if !sc.LineOfSight(p, p) {
			t.Fatalf("point %v cannot see itself", p)
		}
		// Shadow construction must not panic on the same configuration.
		_ = Shadow(sc, p)
		_ = ShadowIntervals(p, tri)

		// The shadow cone is a necessary condition: a blocked target whose
		// view is clear of the shadow interval set would be inconsistent.
		// Only assert the panic-freedom + symmetry of HoleRays here; the
		// angular consistency is covered by unit tests with exact geometry.
		_ = HoleRays(sc, p, 10)
	})
}
