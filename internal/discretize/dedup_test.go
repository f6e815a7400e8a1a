package discretize

import (
	"math"
	"math/rand"
	"testing"

	"hipo/internal/geom"
	"hipo/internal/model"
	"hipo/internal/visindex"
)

// mapDeduper is the deduper as it stood before the flat cell table: a Go
// map from cell to the kept points in it. It is kept verbatim as the
// differential reference for TestDeduperMatchesMapReference.
type mapDeduper struct {
	tol    float64
	cells  map[[2]int64][]int
	points []geom.Vec
}

func newMapDeduper() *mapDeduper {
	return &mapDeduper{tol: 1e-6, cells: make(map[[2]int64][]int)}
}

func (d *mapDeduper) add(p geom.Vec) {
	cx := int64(math.Floor(p.X / d.tol))
	cy := int64(math.Floor(p.Y / d.tol))
	for dx := int64(-1); dx <= 1; dx++ {
		for dy := int64(-1); dy <= 1; dy++ {
			for _, idx := range d.cells[[2]int64{cx + dx, cy + dy}] {
				if d.points[idx].Dist(p) <= d.tol {
					return
				}
			}
		}
	}
	d.points = append(d.points, p)
	d.cells[[2]int64{cx, cy}] = append(d.cells[[2]int64{cx, cy}], len(d.points)-1)
}

// dedupCloud returns a seeded point cloud that exercises every dedup
// decision: exact duplicates, pairs exactly dedupTol apart along each axis
// and diagonal, clusters jittered around cell corners (so near neighbors
// fall in all eight surrounding cells), negative coordinates, and a spread
// of isolated points covering thousands of distinct cells.
func dedupCloud(seed int64) []geom.Vec {
	rng := rand.New(rand.NewSource(seed))
	var pts []geom.Vec
	for i := 0; i < 3000; i++ {
		// Isolated points, both signs.
		pts = append(pts, geom.V(rng.Float64()*200-100, rng.Float64()*200-100))
	}
	for i := 0; i < 400; i++ {
		c := pts[rng.Intn(len(pts))]
		switch i % 4 {
		case 0: // exact duplicate
			pts = append(pts, c)
		case 1: // exactly dedupTol away along an axis
			pts = append(pts, geom.V(c.X+dedupTol, c.Y), geom.V(c.X, c.Y-dedupTol))
		case 2: // dedupTol away along a diagonal
			d := dedupTol / math.Sqrt2
			pts = append(pts, geom.V(c.X+d, c.Y+d), geom.V(c.X-d, c.Y+d))
		default: // just inside and just outside the tolerance
			pts = append(pts, geom.V(c.X+0.999*dedupTol, c.Y), geom.V(c.X, c.Y+1.001*dedupTol))
		}
	}
	for i := 0; i < 600; i++ {
		// Clusters around a cell corner, some coordinates negative.
		corner := geom.V(float64(rng.Intn(2000)-1000)*dedupTol, float64(rng.Intn(2000)-1000)*dedupTol)
		for k := 0; k < 4; k++ {
			j := geom.V((rng.Float64()-0.5)*1.2*dedupTol, (rng.Float64()-0.5)*1.2*dedupTol)
			pts = append(pts, corner.Add(j))
		}
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// TestDeduperMatchesMapReference checks the flat cell table keeps exactly
// the points, in the same order, that the map deduper keeps: sized from the
// input, and grown many times from the smallest table.
func TestDeduperMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		pts := dedupCloud(seed)
		ref := newMapDeduper()
		for _, p := range pts {
			ref.add(p)
		}
		if len(ref.points) == len(pts) {
			t.Fatalf("seed %d: the cloud has no near duplicates", seed)
		}
		for _, hint := range []int{len(pts), 0} {
			d := newDeduper(hint)
			initial := len(d.slots)
			for _, p := range pts {
				d.add(p)
			}
			if hint == 0 && len(d.slots) < 64*initial {
				t.Errorf("seed %d: table grew from %d to only %d slots", seed, initial, len(d.slots))
			}
			if len(d.points) != len(ref.points) {
				t.Fatalf("seed %d hint %d: kept %d points, map reference %d", seed, hint, len(d.points), len(ref.points))
			}
			for k := range ref.points {
				if d.points[k] != ref.points[k] {
					t.Fatalf("seed %d hint %d: point %d = %v, map reference %v", seed, hint, k, d.points[k], ref.points[k])
				}
			}
		}
	}
}

// TestAssembleMatchesSerialReference runs Assemble at one and three
// workers against the serial reference: the map deduper over the task
// workloads in device order, with the per-task ends read off as each task
// is added. Positions out of every device's charging range are injected
// and must be kept: Assemble deduplicates and filters nothing else.
func TestAssembleMatchesSerialReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sc := twoDeviceScenario()
	sc.Devices = nil
	for i := 0; i < 60; i++ {
		sc.Devices = append(sc.Devices, model.Device{
			Pos:    geom.V(2+rng.Float64()*36, 2+rng.Float64()*36),
			Orient: rng.Float64() * 2 * math.Pi,
		})
	}
	sc.Obstacles = []model.Obstacle{
		{Shape: geom.Rect(10, 10, 13, 12)},
		{Shape: geom.RegularPolygon(geom.V(28, 25), 2, 7, 0.4)},
	}
	sc = visindex.Ensure(sc)
	for _, workers := range []int{1, 3} {
		g := NewGenerator(sc, 0, Config{Eps1: 0.3, Workers: workers})
		tasks := g.Workloads(nil, workers, nil, nil)
		far := 0
		for i := range tasks {
			for j := 0; j < i%5; j++ {
				tasks[i] = append(tasks[i], geom.V(-100-float64(i), float64(j)))
				far++
			}
		}
		ref := newMapDeduper()
		var refEnds []int
		for _, task := range tasks {
			for _, p := range task {
				ref.add(p)
			}
			refEnds = append(refEnds, len(ref.points))
		}
		pts, ends := Assemble(tasks)
		if len(pts) != len(ref.points) {
			t.Fatalf("workers %d: %d positions, serial reference %d", workers, len(pts), len(ref.points))
		}
		for i := range ref.points {
			if pts[i] != ref.points[i] {
				t.Fatalf("workers %d: position %d = %v, serial reference %v", workers, i, pts[i], ref.points[i])
			}
		}
		for i := range refEnds {
			if ends[i] != refEnds[i] {
				t.Fatalf("workers %d: ends[%d] = %d, serial reference %d", workers, i, ends[i], refEnds[i])
			}
		}
		kept := 0
		for _, p := range pts {
			if p.X < -50 {
				kept++
			}
		}
		if kept != far {
			t.Fatalf("workers %d: kept %d of %d injected out-of-range positions", workers, kept, far)
		}
		ReleaseWorkloads(tasks)
	}
}
