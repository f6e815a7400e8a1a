package geom

import (
	"math"
	"math/rand"
	"testing"
)

// Property: every input point is inside or on the hull, and the hull is
// convex.

func TestRandomSimplePolygon(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(10)
		c := V(rng.Float64()*20, rng.Float64()*20)
		p := RandomSimplePolygon(rng, c, 1, 4, n)
		if len(p.Vertices) != n {
			t.Fatalf("vertices = %d, want %d", len(p.Vertices), n)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: invalid polygon: %v", trial, err)
		}
		if !p.IsSimple() {
			t.Fatalf("trial %d: self-intersecting polygon generated", trial)
		}
		// Star-shaped around c: the center is inside.
		if !p.ContainsPoint(c) {
			t.Fatalf("trial %d: center outside star polygon", trial)
		}
		// All vertices within the radius band.
		for _, v := range p.Vertices {
			d := v.Dist(c)
			if d < 1-1e-9 || d > 4+1e-9 {
				t.Fatalf("trial %d: vertex radius %v out of [1,4]", trial, d)
			}
		}
	}
}

func TestIsSimple(t *testing.T) {
	if !unitSquare().IsSimple() {
		t.Error("square should be simple")
	}
	// Bowtie: self-intersecting.
	bow := Poly(V(0, 0), V(2, 2), V(2, 0), V(0, 2))
	if bow.IsSimple() {
		t.Error("bowtie should not be simple")
	}
	if (Polygon{Vertices: []Vec{V(0, 0), V(1, 1)}}).IsSimple() {
		t.Error("two-vertex polygon is not simple")
	}
}

func TestRandomSimplePolygonMinVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := RandomSimplePolygon(rng, V(0, 0), 1, 2, 0)
	if len(p.Vertices) != 3 {
		t.Errorf("n<3 should clamp to 3, got %d", len(p.Vertices))
	}
	_ = math.Pi
}
