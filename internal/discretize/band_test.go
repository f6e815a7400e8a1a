package discretize_test

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"hipo"
	"hipo/internal/corpus"
	"hipo/internal/discretize"
	"hipo/internal/geom"
	"hipo/internal/model"
	"hipo/internal/power"
	"hipo/internal/visindex"
)

// bandEps are the public ε values the charging-band check generates at.
var bandEps = []float64{0.05, 0.3}

// TestPositionsInChargingBand checks the fact that lets Assemble keep every
// position without a range filter: every position of every task workload
// lies within [d_min − Eps, d_max + Eps] of some device, found by scanning
// every device. It covers one scenario of every corpus family, the golden
// fixtures and a seeded random scenario set, at ε ∈ {0.05, 0.3}.
func TestPositionsInChargingBand(t *testing.T) {
	for _, fam := range corpus.Names() {
		sc, err := corpus.BuildModel(7, fam, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkChargingBand(t, "corpus/"+fam, sc)
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden fixtures found: %v", err)
	}
	for _, path := range paths {
		checkChargingBand(t, "golden/"+filepath.Base(path), goldenScenario(t, path))
	}
	for seed := int64(1); seed <= 40; seed++ {
		checkChargingBand(t, fmt.Sprintf("random/%d", seed), randomBandScenario(seed))
	}
}

// checkChargingBand generates every task workload of sc for every charger
// type at each ε of bandEps and fails on a position no device is in range
// of.
func checkChargingBand(t *testing.T, name string, sc *model.Scenario) {
	t.Helper()
	sc = visindex.Ensure(sc)
	for _, eps := range bandEps {
		for q, ct := range sc.ChargerTypes {
			g := discretize.NewGenerator(sc, q, discretize.Config{Eps1: power.Eps1ForEps(eps), Workers: 2})
			tasks := g.Workloads(nil, 2, nil, nil)
			n := 0
			for i, task := range tasks {
				for _, p := range task {
					n++
					if !inChargingBand(sc, ct, p) {
						t.Errorf("%s ε=%v type %d: task %d position %v has no device within [%v, %v]",
							name, eps, q, i, p, ct.DMin-geom.Eps, ct.DMax+geom.Eps)
					}
				}
			}
			discretize.ReleaseWorkloads(tasks)
			if n == 0 && len(sc.Devices) > 0 {
				t.Errorf("%s ε=%v type %d: no positions generated", name, eps, q)
			}
		}
	}
}

// inChargingBand reports whether some device is within
// [DMin − Eps, DMax + Eps] of p.
func inChargingBand(sc *model.Scenario, ct model.ChargerType, p geom.Vec) bool {
	for _, dev := range sc.Devices {
		if d := p.Dist(dev.Pos); d >= ct.DMin-geom.Eps && d <= ct.DMax+geom.Eps {
			return true
		}
	}
	return false
}

// goldenScenario decodes the scenario of a golden fixture into the
// internal model.
func goldenScenario(t *testing.T, path string) *model.Scenario {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Scenario hipo.Scenario `json:"scenario"`
	}
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	s := rec.Scenario
	sc := &model.Scenario{Region: model.Region{Min: geom.V(s.Min.X, s.Min.Y), Max: geom.V(s.Max.X, s.Max.Y)}}
	for _, c := range s.ChargerTypes {
		sc.ChargerTypes = append(sc.ChargerTypes, model.ChargerType{Name: c.Name, Alpha: c.Alpha, DMin: c.DMin, DMax: c.DMax, Count: c.Count})
	}
	for _, d := range s.DeviceTypes {
		sc.DeviceTypes = append(sc.DeviceTypes, model.DeviceType{Name: d.Name, Alpha: d.Alpha, PTh: d.PTh})
	}
	for _, row := range s.Power {
		var r []model.PowerParams
		for _, p := range row {
			r = append(r, model.PowerParams{A: p.A, B: p.B})
		}
		sc.Power = append(sc.Power, r)
	}
	for _, d := range s.Devices {
		sc.Devices = append(sc.Devices, model.Device{Pos: geom.V(d.Pos.X, d.Pos.Y), Orient: d.Orient, Type: d.Type})
	}
	for _, o := range s.Obstacles {
		var vs []geom.Vec
		for _, v := range o.Vertices {
			vs = append(vs, geom.V(v.X, v.Y))
		}
		sc.Obstacles = append(sc.Obstacles, model.Obstacle{Shape: geom.Polygon{Vertices: vs}})
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return sc
}

// randomBandScenario returns a seeded scenario on a 40×40 region: one or
// two charger types with random angles (omnidirectional included) and
// ranges (d_min = 0 included), two device types, 4–25 devices outside up
// to four random star-shaped obstacles.
func randomBandScenario(seed int64) *model.Scenario {
	rng := rand.New(rand.NewSource(seed))
	angle := func() float64 {
		if rng.Intn(4) == 0 {
			return 2 * math.Pi
		}
		return 0.3 + rng.Float64()*(2*math.Pi-0.6)
	}
	sc := &model.Scenario{Region: model.Region{Min: geom.V(0, 0), Max: geom.V(40, 40)}}
	for q := 0; q < 1+rng.Intn(2); q++ {
		dmin := 0.0
		if rng.Intn(3) > 0 {
			dmin = rng.Float64() * 3
		}
		sc.ChargerTypes = append(sc.ChargerTypes, model.ChargerType{
			Name: fmt.Sprintf("c%d", q), Alpha: angle(), DMin: dmin, DMax: dmin + 2 + rng.Float64()*8, Count: 2,
		})
	}
	for d := 0; d < 2; d++ {
		sc.DeviceTypes = append(sc.DeviceTypes, model.DeviceType{Name: fmt.Sprintf("d%d", d), Alpha: angle(), PTh: 0.05})
	}
	for range sc.ChargerTypes {
		sc.Power = append(sc.Power, []model.PowerParams{{A: 100, B: 40}, {A: 60 + rng.Float64()*60, B: 20 + rng.Float64()*30}})
	}
	for h := 0; h < rng.Intn(5); h++ {
		c := geom.V(6+rng.Float64()*28, 6+rng.Float64()*28)
		sc.Obstacles = append(sc.Obstacles, model.Obstacle{Shape: geom.RandomSimplePolygon(rng, c, 0.8, 3, 3+rng.Intn(6))})
	}
	for n := 4 + rng.Intn(22); len(sc.Devices) < n; {
		p := geom.V(1+rng.Float64()*38, 1+rng.Float64()*38)
		if sc.FeasiblePosition(p) {
			sc.Devices = append(sc.Devices, model.Device{Pos: p, Orient: rng.Float64() * 2 * math.Pi, Type: rng.Intn(2)})
		}
	}
	return sc
}
