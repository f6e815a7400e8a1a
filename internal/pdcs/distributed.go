package pdcs

import (
	"time"

	"hipo/internal/discretize"
	"hipo/internal/model"
	"hipo/internal/schedule"
)

// DistStats reports the timing of a distributed extraction run.
type DistStats struct {
	// TaskSeconds[i] is task i's cost: the measured duration when cfg.Clock
	// is set — the task's position generation plus the sweep of the
	// positions it produced first, summed over charger types — otherwise
	// the deterministic TaskCost estimate from internal/discretize
	// (arbitrary units), the same cost model that ordered the worker pool's
	// hand-out.
	TaskSeconds []float64
	// SerialSeconds is Σ TaskSeconds: the non-distributed cost of the
	// parallel-processing part.
	SerialSeconds float64
	// MakespanSeconds[m] is the simulated LPT makespan with m machines, for
	// each requested machine count, over the same TaskSeconds.
	MakespanSeconds map[int]float64
}

// ExtractDistributed implements Algorithm 5: it runs PDCS extraction as
// per-device tasks (Algorithm 4) on a worker pool of size workers (0 =
// serial measurement only) and simulates the LPT makespan for every
// machine count in machineCounts. Extraction runs through Extract's pipeline with one sweep block
// per task, so the candidates are bit-for-bit Extract's for every charger
// type, independent of worker count and hand-out order.
//
// One cost model drives all scheduling: discretize.TaskCost summed across
// charger types orders the live pool's hand-out (LPT), and the same
// estimates back the makespan simulation when no Clock measures real
// durations.
func ExtractDistributed(sc *model.Scenario, cfg Config, workers int, machineCounts []int) ([][]Candidate, DistStats) {
	sc = cfg.ensureVisibility(sc)
	if workers <= 0 {
		workers = 1
	}
	cfg.Workers = workers
	no := len(sc.Devices)
	gens := make([]*discretize.Generator, len(sc.ChargerTypes))
	est := make([]schedule.Task, no)
	for i := range est {
		est[i].ID = i
	}
	for q := range gens {
		gens[q] = discretize.NewGenerator(sc, q, cfg.discretize(workers))
		for i := range est {
			est[i].Duration += gens[q].TaskCost(i)
		}
	}
	order := schedule.LPTOrder(est)
	out := make([][]Candidate, len(gens))
	measured := make([]time.Duration, no)
	for q := range gens {
		var dur []time.Duration
		out[q], dur = pipeline(sc, q, gens[q], cfg, nil, order, cfg.Clock)
		for i, d := range dur {
			measured[i] += d
		}
	}

	stats := DistStats{
		TaskSeconds:     make([]float64, no),
		MakespanSeconds: make(map[int]float64),
	}
	tasks := make([]schedule.Task, no)
	for i := range tasks {
		if cfg.Clock != nil {
			stats.TaskSeconds[i] = measured[i].Seconds()
		} else {
			stats.TaskSeconds[i] = est[i].Duration
		}
		stats.SerialSeconds += stats.TaskSeconds[i]
		tasks[i] = schedule.Task{ID: i, Duration: stats.TaskSeconds[i]}
	}
	for _, m := range machineCounts {
		// With m ≥ No machines LPT gives every task its own machine, so the
		// makespan is the longest task (Algorithm 5 line 1).
		stats.MakespanSeconds[m] = schedule.LPT(tasks, m).Makespan()
	}
	return out, stats
}
