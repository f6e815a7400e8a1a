package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestNormAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{2 * math.Pi, 0},
		{-math.Pi / 2, 3 * math.Pi / 2},
		{5 * math.Pi, math.Pi},
		{-4 * math.Pi, 0},
	}
	for _, c := range cases {
		if got := NormAngle(c.in); !almostEq(got, c.want, 1e-9) {
			t.Errorf("NormAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestAngleDiff(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0, math.Pi / 2, math.Pi / 2},
		{math.Pi / 2, 0, -math.Pi / 2},
		{0.1, 2*math.Pi - 0.1, -0.2},
		{2*math.Pi - 0.1, 0.1, 0.2},
	}
	for _, c := range cases {
		if got := AngleDiff(c.a, c.b); !almostEq(got, c.want, 1e-9) {
			t.Errorf("AngleDiff(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestIntervalContains(t *testing.T) {
	iv := NewInterval(math.Pi/4, math.Pi/2)
	if !iv.Contains(math.Pi / 3) {
		t.Error("should contain π/3")
	}
	if iv.Contains(math.Pi) {
		t.Error("should not contain π")
	}
	// Wrap-around interval.
	wrap := NewInterval(3*math.Pi/2, math.Pi/2)
	for _, theta := range []float64{0, 0.1, 2 * math.Pi * 0.9, 3 * math.Pi / 2, math.Pi / 2} {
		if !wrap.Contains(theta) {
			t.Errorf("wrap interval should contain %v", theta)
		}
	}
	for _, theta := range []float64{math.Pi, 2, 2.5} {
		if wrap.Contains(theta) {
			t.Errorf("wrap interval should not contain %v", theta)
		}
	}
}

func TestIntervalSetAddMerge(t *testing.T) {
	var s IntervalSet
	s.Add(NewInterval(0, 1))
	s.Add(NewInterval(2, 3))
	if got := len(s.Intervals()); got != 2 {
		t.Fatalf("intervals = %d, want 2", got)
	}
	s.Add(NewInterval(0.5, 2.5)) // bridges both
	if got := len(s.Intervals()); got != 1 {
		t.Fatalf("after merge intervals = %d, want 1", got)
	}
	iv := s.Intervals()[0]
	if !almostEq(iv.Lo, 0, 1e-9) || !almostEq(iv.Hi, 3, 1e-9) {
		t.Errorf("merged = [%v,%v], want [0,3]", iv.Lo, iv.Hi)
	}
}

func TestIntervalSetWrapAround(t *testing.T) {
	var s IntervalSet
	s.Add(NewInterval(3*math.Pi/2, math.Pi/2)) // wraps through 0
	if !s.Covers(0) || !s.Covers(0.1) || !s.Covers(2*math.Pi-0.1) {
		t.Error("wrap-around coverage broken")
	}
	if s.Covers(math.Pi) {
		t.Error("should not cover π")
	}
	comp := s.Complement()
	total := 0.0
	for _, iv := range comp {
		total += iv.Width()
	}
	if !almostEq(total, math.Pi, 1e-9) {
		t.Errorf("complement width = %v, want π", total)
	}
}

func TestIntervalSetCoversAll(t *testing.T) {
	var s IntervalSet
	s.Add(NewInterval(0, math.Pi))
	if s.CoversAll() {
		t.Error("half circle should not cover all")
	}
	s.Add(NewInterval(math.Pi, 2*math.Pi))
	if !s.CoversAll() {
		t.Error("two halves should cover all")
	}
	var f IntervalSet
	f.Add(FullCircle())
	if !f.CoversAll() {
		t.Error("full circle should cover all")
	}
}

func TestIntervalSetComplementEmpty(t *testing.T) {
	var s IntervalSet
	comp := s.Complement()
	if len(comp) != 1 || !almostEq(comp[0].Width(), 2*math.Pi, 1e-12) {
		t.Errorf("empty set complement = %v", comp)
	}
}

// Property: for random interval sets, every angle is covered by exactly one
// of (set, complement).
func TestIntervalSetComplementPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		var s IntervalSet
		for k := 0; k < 5; k++ {
			lo := rng.Float64() * 2 * math.Pi
			w := rng.Float64() * math.Pi
			s.Add(NewInterval(lo, lo+w))
		}
		var c IntervalSet
		for _, iv := range s.Complement() {
			c.Add(iv)
		}
		for probe := 0; probe < 50; probe++ {
			theta := rng.Float64() * 2 * math.Pi
			in := s.Covers(theta)
			out := c.Covers(theta)
			// Points near boundaries may be covered by both due to Eps, but
			// never by neither.
			if !in && !out {
				t.Fatalf("angle %v covered by neither set nor complement", theta)
			}
		}
	}
}
