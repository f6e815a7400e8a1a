package pdcs

import (
	"math"
	"testing"
	"time"

	"hipo/internal/geom"
	"hipo/internal/model"
)

// candidatesEqual reports whether two per-type candidate sets agree bit for
// bit: same order, strategies, coverage lists, and Float64bits throughout.
func candidatesEqual(a, b [][]Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for q := range a {
		if len(a[q]) != len(b[q]) {
			return false
		}
		for i := range a[q] {
			x, y := a[q][i], b[q][i]
			if math.Float64bits(x.S.Pos.X) != math.Float64bits(y.S.Pos.X) ||
				math.Float64bits(x.S.Pos.Y) != math.Float64bits(y.S.Pos.Y) ||
				math.Float64bits(x.S.Orient) != math.Float64bits(y.S.Orient) ||
				x.S.Type != y.S.Type || len(x.Covers) != len(y.Covers) {
				return false
			}
			for m := range x.Covers {
				if x.Covers[m].Device != y.Covers[m].Device ||
					math.Float64bits(x.Covers[m].Power) != math.Float64bits(y.Covers[m].Power) {
					return false
				}
			}
		}
	}
	return true
}

// distScenario extends the ring with a wall and a second, wider charger
// type, so tasks overlap, occlusion matters, and dedup crosses tasks.
func distScenario() *model.Scenario {
	sc := ringScenario()
	sc.Obstacles = []model.Obstacle{{Shape: geom.Rect(22, 18, 23, 22)}}
	sc.ChargerTypes = append(sc.ChargerTypes, model.ChargerType{
		Name: "c2", Alpha: math.Pi, DMin: 0.5, DMax: 6, Count: 1,
	})
	sc.Power = append(sc.Power, []model.PowerParams{{A: 120, B: 48}})
	return sc
}

func TestExtractDistributedMatchesSerialUnion(t *testing.T) {
	for _, sc := range []*model.Scenario{ringScenario(), distScenario()} {
		serial := ExtractAll(sc, Config{Eps1: 0.4})
		for _, workers := range []int{1, 3, 8} {
			dist, _ := ExtractDistributed(sc, Config{Eps1: 0.4, Clock: time.Now}, workers, nil)
			if !candidatesEqual(serial, dist) {
				t.Fatalf("%d types, workers=%d: distributed candidates differ from ExtractAll", len(sc.ChargerTypes), workers)
			}
		}
	}
	sc := ringScenario()
	_, stats := ExtractDistributed(sc, Config{Eps1: 0.4, Clock: time.Now}, 4, []int{1, 2, 4})
	// Timing stats are self-consistent.
	if len(stats.TaskSeconds) != len(sc.Devices) {
		t.Errorf("task seconds = %d entries", len(stats.TaskSeconds))
	}
	sum := 0.0
	for _, s := range stats.TaskSeconds {
		if s < 0 {
			t.Error("negative task time")
		}
		sum += s
	}
	if math.Abs(sum-stats.SerialSeconds) > 1e-9 {
		t.Error("serial time != Σ task times")
	}
	// Makespan decreases (weakly) with machines and never beats the longest
	// task.
	if stats.MakespanSeconds[2] > stats.MakespanSeconds[1]+1e-12 {
		t.Error("makespan grew with machines")
	}
	if stats.MakespanSeconds[4] > stats.MakespanSeconds[2]+1e-12 {
		t.Error("makespan grew with machines")
	}
}

func TestExtractDistributedManyMachines(t *testing.T) {
	sc := ringScenario()
	_, stats := ExtractDistributed(sc, Config{Eps1: 0.4, Clock: time.Now}, 2, []int{100})
	longest := 0.0
	for _, s := range stats.TaskSeconds {
		if s > longest {
			longest = s
		}
	}
	if math.Abs(stats.MakespanSeconds[100]-longest) > 1e-12 {
		t.Errorf("m≥No makespan should equal longest task: %v vs %v",
			stats.MakespanSeconds[100], longest)
	}
}

// TestExtractDistributedOrderIndependent is the regression test for the
// single-cost-model contract: the merged shard outputs and every scheduling
// statistic must be bit-identical regardless of how many workers the pool
// ran with (hand-out order changes, output must not), and the deterministic
// TaskCost estimates must drive both the LPT hand-out and the makespan
// simulation identically on every run.
func TestExtractDistributedOrderIndependent(t *testing.T) {
	sc := ringScenario()
	cfg := Config{Eps1: 0.4}
	ref, refStats := ExtractDistributed(sc, cfg, 1, []int{2, 4})
	for _, workers := range []int{3, 8} {
		got, stats := ExtractDistributed(sc, cfg, workers, []int{2, 4})
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d type buckets vs %d", workers, len(got), len(ref))
		}
		for q := range ref {
			if len(got[q]) != len(ref[q]) {
				t.Fatalf("workers=%d type %d: %d candidates vs %d", workers, q, len(got[q]), len(ref[q]))
			}
			for i := range ref[q] {
				a, b := ref[q][i], got[q][i]
				if math.Float64bits(a.S.Pos.X) != math.Float64bits(b.S.Pos.X) ||
					math.Float64bits(a.S.Pos.Y) != math.Float64bits(b.S.Pos.Y) ||
					math.Float64bits(a.S.Orient) != math.Float64bits(b.S.Orient) ||
					len(a.Covers) != len(b.Covers) {
					t.Fatalf("workers=%d type %d candidate %d differs from single-worker run", workers, q, i)
				}
				for m := range a.Covers {
					if a.Covers[m].Device != b.Covers[m].Device ||
						math.Float64bits(a.Covers[m].Power) != math.Float64bits(b.Covers[m].Power) {
						t.Fatalf("workers=%d type %d candidate %d coverage differs", workers, q, i)
					}
				}
			}
		}
		// With a nil Clock the stats are pure functions of the cost model;
		// any drift means a second estimate crept back in.
		for i := range refStats.TaskSeconds {
			if stats.TaskSeconds[i] != refStats.TaskSeconds[i] {
				t.Fatalf("workers=%d: task %d cost estimate %v vs %v", workers, i, stats.TaskSeconds[i], refStats.TaskSeconds[i])
			}
		}
		for _, m := range []int{2, 4} {
			if stats.MakespanSeconds[m] != refStats.MakespanSeconds[m] {
				t.Fatalf("workers=%d: makespan(%d) %v vs %v", workers, m, stats.MakespanSeconds[m], refStats.MakespanSeconds[m])
			}
		}
	}
}
