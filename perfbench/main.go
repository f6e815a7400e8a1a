// Command perfbench is the repository benchmark. One process runs one
// workload for a fixed time, checks every output it produces, and prints
// its metrics by name and unit; the last line of standard output is the
// JSON result. See README.md for the workloads, the metrics, and what each
// per-layer metric is expected to move.
//
//	go run . -workload cold-large -seed 1 -seconds 30 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// spec names a reported metric and its unit.
type spec struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported on every workload.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"op_ms.p50", "ms"},
	{"utility", "1"},
	{"alloc_mb_per_op", "MB"},
	{"heap_peak_mb", "MB"},
}

// perLayer are the metrics of a traced run. Times are self times per op;
// counts are per op. A layer the workload does not reach (see reaches)
// reports 0.
var perLayer = []spec{
	{"visindex.ensure_ms", "ms"},
	{"discretize.candidate_positions_ms", "ms"},
	{"discretize.positions", "count/op"},
	{"discretize.feasibility_queries", "count/op"},
	{"discretize.pairs_pruned", "count/op"},
	{"pdcs.new_sweeper_ms", "ms"},
	{"pdcs.sweep_ms", "ms"},
	{"pdcs.los_queries", "count/op"},
	{"pdcs.candidates_raw", "count/op"},
	{"pdcs.reduce_ms", "ms"},
	{"pdcs.candidates_kept", "count/op"},
	{"pdcs.keep_ratio", "1"},
	{"core.build_instance_ms", "ms"},
	{"submodular.greedy_ms", "ms"},
	{"submodular.gain_evals", "count/op"},
	{"submodular.lazy_reevals", "count/op"},
	{"power.evaluate_ms", "ms"},
	{"incremental.apply_ms", "ms"},
	{"incremental.solve_ms", "ms"},
	{"incremental.task_reuse_ratio", "1"},
	{"incremental.sweep_reuse_ratio", "1"},
	{"incremental.gain_warm_ratio", "1"},
	{"serve.request_ms", "ms"},
	{"serve.decode_ms", "ms"},
	{"hipo.validate_ms", "ms"},
	{"hipo.scenario_hash_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"solvecache.hit_ratio", "1"},
	{"serve.stage_ms.discretize", "ms"},
	{"serve.stage_ms.pdcs", "ms"},
	{"serve.stage_ms.greedy", "ms"},
	{"jobs.queue_wait_ms", "ms"},
	{"hipotrace.overhead_ratio", "1"},
	{"hipotrace.overhead_ratio.q1", "1"},
	{"hipotrace.overhead_ratio.q3", "1"},
	{"bench.trace_overhead_ratio", "1"},
}

// reaches names, per workload, the per-layer metrics its traced run must
// emit: a run that misses one fails, so a renamed span, counter or server
// series cannot pass as a layer the workload does not reach. The remaining
// per-layer metrics report 0. The incremental session feeds its tracer no
// candidate_positions, candidates_raw or candidates_kept, so mutate-stream
// reports those as 0 too.
var reaches = map[string][]string{
	"cold-large": {
		"visindex.ensure_ms", "discretize.candidate_positions_ms", "discretize.positions",
		"discretize.feasibility_queries", "discretize.pairs_pruned", "pdcs.new_sweeper_ms", "pdcs.sweep_ms",
		"pdcs.los_queries", "pdcs.candidates_raw", "pdcs.reduce_ms", "pdcs.candidates_kept", "pdcs.keep_ratio",
		"core.build_instance_ms", "submodular.greedy_ms", "submodular.gain_evals", "submodular.lazy_reevals",
		"power.evaluate_ms", "hipotrace.overhead_ratio", "hipotrace.overhead_ratio.q1",
		"hipotrace.overhead_ratio.q3", "bench.trace_overhead_ratio",
	},
	"mutate-stream": {
		"incremental.apply_ms", "incremental.solve_ms", "incremental.task_reuse_ratio",
		"incremental.sweep_reuse_ratio", "incremental.gain_warm_ratio", "discretize.feasibility_queries",
		"discretize.pairs_pruned", "pdcs.los_queries", "submodular.gain_evals", "submodular.lazy_reevals",
		"hipotrace.overhead_ratio", "hipotrace.overhead_ratio.q1", "hipotrace.overhead_ratio.q3",
		"bench.trace_overhead_ratio",
	},
	"serve-mixed": {
		"visindex.ensure_ms", "power.evaluate_ms", "serve.request_ms", "serve.decode_ms", "hipo.validate_ms",
		"hipo.scenario_hash_ms", "serve.encode_ms", "solvecache.hit_ratio", "serve.stage_ms.discretize",
		"serve.stage_ms.pdcs", "serve.stage_ms.greedy", "jobs.queue_wait_ms", "bench.trace_overhead_ratio",
	},
}

// spanMetrics maps span names to the per-layer self-time metric they feed.
var spanMetrics = map[string]string{
	"visindex.ensure":                "visindex.ensure_ms",
	"discretize.candidate_positions": "discretize.candidate_positions_ms",
	"pdcs.new_sweeper":               "pdcs.new_sweeper_ms",
	"pdcs.sweep":                     "pdcs.sweep_ms",
	"pdcs.reduce":                    "pdcs.reduce_ms",
	"core.build_instance":            "core.build_instance_ms",
	"submodular.greedy":              "submodular.greedy_ms",
	"power.evaluate":                 "power.evaluate_ms",
	"incremental.apply":              "incremental.apply_ms",
	"incremental.solve":              "incremental.solve_ms",
	"serve.request":                  "serve.request_ms",
	"serve.decode":                   "serve.decode_ms",
	"hipo.validate":                  "hipo.validate_ms",
	"hipo.scenario_hash":             "hipo.scenario_hash_ms",
	"serve.encode":                   "serve.encode_ms",
}

// counterMetrics maps hipotrace counter names to per-op count metrics.
var counterMetrics = map[string]string{
	"candidate_positions": "discretize.positions",
	"feasibility_queries": "discretize.feasibility_queries",
	"pairs_pruned":        "discretize.pairs_pruned",
	"los_queries":         "pdcs.los_queries",
	"candidates_raw":      "pdcs.candidates_raw",
	"candidates_kept":     "pdcs.candidates_kept",
	"gain_evals":          "submodular.gain_evals",
	"lazy_reevals":        "submodular.lazy_reevals",
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	size     sizes
}

// sizes are the input sizes of every workload; the self-test shrinks them.
type sizes struct {
	setupReps                 int
	coldObstacles, coldDevMul int
	coldScenarios             int
	mutObstacles, mutDevMul   int
	mutChecks                 int
	serveClients              int
	serveChecks               int
}

var fullSizes = sizes{
	setupReps:     9,
	coldObstacles: 200, coldDevMul: 20, coldScenarios: 24,
	mutObstacles: 100, mutDevMul: 10, mutChecks: 4,
	serveClients: 2, serveChecks: 24,
}

// workloads maps each workload name to its runner. A runner returns an
// error only when the run could not be set up or measured at all.
var workloads = map[string]func(config) (*outcome, error){
	"cold-large":    runCold,
	"mutate-stream": runMutate,
	"serve-mixed":   runServe,
}

func main() {
	workload := flag.String("workload", "", "workload name: cold-large, mutate-stream, or serve-mixed")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 30, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	out := flag.String("out", ".bench_build/results", "directory for the result and span files")
	flag.Parse()
	cfg := config{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, size: fullSizes}
	code, err := run(cfg, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one workload and prints its report; the returned code is
// non-zero when the run failed or any correctness check failed.
func run(cfg config, outDir string) (int, error) {
	runner, ok := workloads[cfg.workload]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return 2, errors.New("seconds must be positive")
	}
	env := environment(cfg)
	for _, k := range sortedKeys(env) {
		fmt.Printf("env %s = %v\n", k, env[k])
	}
	o, err := runner(cfg)
	if err != nil {
		return 1, err
	}
	res, err := finish(cfg, o)
	if err != nil {
		return 1, err
	}
	if err := save(cfg, outDir, env, o, res); err != nil {
		return 1, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

// finish checks that every declared metric was produced and assembles the
// result line.
func finish(cfg config, o *outcome) (*result, error) {
	want := endToEnd
	if cfg.trace {
		want = perLayer
		for _, name := range reaches[cfg.workload] {
			if _, ok := o.Metrics[name]; !ok {
				return nil, fmt.Errorf("traced run did not emit %s, a layer %s reaches", name, cfg.workload)
			}
		}
		for _, s := range perLayer {
			if _, ok := o.Metrics[s.name]; !ok {
				o.set(s.name, 0, s.unit)
			}
		}
	}
	if len(o.Metrics) != len(want) {
		return nil, fmt.Errorf("workload reported %d metrics, want %d", len(o.Metrics), len(want))
	}
	for _, s := range want {
		m, ok := o.Metrics[s.name]
		if !ok || m.Unit != s.unit {
			return nil, fmt.Errorf("metric %s missing or not in %s", s.name, s.unit)
		}
	}
	if o.Attempted < 1 {
		return nil, errors.New("no op completed in the timed window")
	}
	failed := o.failed()
	o.extra("fail_ratio", float64(failed)/float64(o.Attempted), "1")
	show := func(kind string, ms map[string]metric) {
		for _, k := range sortedKeys(ms) {
			n := ""
			if c, ok := o.Samples[k]; ok {
				n = fmt.Sprintf(" (n=%d)", c)
			}
			fmt.Printf("%s %s = %v %s%s\n", kind, k, ms[k].Value, ms[k].Unit, n)
		}
	}
	show("metric", o.Metrics)
	show("extra", o.Extra)
	for _, k := range sortedKeys(o.Seeds) {
		fmt.Printf("input %s seed = %d\n", k, o.Seeds[k])
	}
	if o.Ledger != nil {
		for _, k := range sortedKeys(o.Ledger.Admitted) {
			fmt.Printf("ledger %s = %d\n", k, o.Ledger.Admitted[k])
		}
		for _, k := range sortedKeys(o.Ledger.Excluded) {
			fmt.Printf("ledger excluded %s = %v (differs across workers %v)\n", k, o.Ledger.Excluded[k], o.Ledger.Workers)
		}
	}
	for _, f := range o.Failures {
		fmt.Println("FAIL", f)
	}
	return &result{Correct: failed == 0, Attempted: o.Attempted, Failed: failed, Metrics: o.Metrics}, nil
}

// environment is the provenance recorded with every result.
func environment(cfg config) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// save writes the full report, and the spans of a traced run, to outDir.
func save(cfg config, outDir string, env map[string]any, o *outcome, res *result) error {
	if outDir == "" {
		return nil
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, btoi(cfg.trace)))
	report := map[string]any{"env": env, "result": res, "outcome": o}
	if o.spans != nil {
		o.spans.mu.Lock()
		spans := o.spans.spans
		o.spans.mu.Unlock()
		if err := writeJSON(base+"-spans.json", spans); err != nil {
			return err
		}
		report["spans_file"] = filepath.Base(base + "-spans.json")
	}
	return writeJSON(base+".json", report)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// layerMetrics turns a recorder's self times into per-op metrics.
func layerMetrics(o *outcome, r *recorder, ops int) {
	if ops == 0 {
		return
	}
	for name, v := range r.selfMs() {
		if m, ok := spanMetrics[name]; ok {
			o.set(m, v/float64(ops), "ms")
		}
	}
}

// counterMetricsPerOp adds per-op hipotrace counter metrics and keep_ratio.
func counterMetricsPerOp(o *outcome, totals map[string]int64, ops int) {
	if ops == 0 {
		return
	}
	for ctr, name := range counterMetrics {
		// hipotrace leaves out counters that stayed 0, so a counter that
		// never counted reports no metric here.
		if v, ok := totals[ctr]; ok {
			o.set(name, float64(v)/float64(ops), "count/op")
		}
	}
	if raw := totals["candidates_raw"]; raw > 0 {
		o.set("pdcs.keep_ratio", float64(totals["candidates_kept"])/float64(raw), "1")
	}
}

// hipotraceOverhead reports the median and quartiles of traced/untraced − 1
// over interleaved pairs of ops.
func hipotraceOverhead(o *outcome, untraced, traced []float64) {
	var ratios []float64
	for i := range untraced {
		if untraced[i] > 0 {
			ratios = append(ratios, traced[i]/untraced[i]-1)
		}
	}
	const name = "hipotrace.overhead_ratio"
	o.set(name, percentile(ratios, 0.5), "1")
	o.set(name+".q1", percentile(ratios, 0.25), "1")
	o.set(name+".q3", percentile(ratios, 0.75), "1")
	o.Samples[name] = len(ratios)
}
