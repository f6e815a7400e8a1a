package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"hipo"
	"hipo/internal/corpus"
	"hipo/internal/expt"
	"hipo/internal/loadrun"
)

// tinySizes shrink every workload so the harness runs in seconds.
var tinySizes = sizes{
	setupReps:     1,
	coldObstacles: 5, coldDevMul: 1, coldScenarios: 2,
	mutObstacles: 5, mutDevMul: 1, mutChecks: 2,
	serveClients: 2, serveChecks: 4,
}

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclaredMetrics pins BENCHMARK.json to the metrics the harness emits.
func TestDeclaredMetrics(t *testing.T) {
	d := readDeclared(t)
	var e2e, layer []spec
	for _, m := range d.EndToEnd {
		e2e = append(e2e, spec{m.Name, m.Unit})
	}
	for _, m := range d.PerLayer {
		layer = append(layer, spec{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, harness emits %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer %v, harness emits %v", layer, perLayer)
	}
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("declared workloads %v, harness has %d", names, len(workloads))
	}
}

// TestServeMixIsDefaultMix holds serve-mixed's pinned request mix to the
// load generator's model of the traffic: when loadrun.DefaultMix changes,
// whether this workload follows is a decision to make, not a side effect.
func TestServeMixIsDefaultMix(t *testing.T) {
	if serveMix != loadrun.DefaultMix {
		t.Errorf("serveMix %+v, loadrun.DefaultMix %+v", serveMix, loadrun.DefaultMix)
	}
}

// TestWorkloadsTiny runs every workload untraced and traced at tiny sizes:
// each must pass its correctness checks and emit every declared metric with
// its unit.
func TestWorkloadsTiny(t *testing.T) {
	d := readDeclared(t)
	for _, w := range d.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 7, seconds: time.Second, trace: trace, size: tinySizes}
			o, err := workloads[w.Name](cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			res, err := finish(cfg, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d: %v",
					w.Name, trace, res.Correct, res.Failed, res.Attempted, o.Failures)
			}
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v, want a finite value in %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
			// Every end-to-end metric, and every per-layer metric of a layer
			// the workload reaches, must be positive; the overhead ratios
			// may be negative.
			positive := map[string]bool{}
			if trace {
				for _, name := range reaches[w.Name] {
					positive[name] = !strings.Contains(name, "overhead_ratio")
				}
			} else {
				for _, m := range want {
					positive[m.Name] = true
				}
			}
			for name, pos := range positive {
				if v := res.Metrics[name].Value; pos && v <= 0 {
					t.Errorf("%s trace=%v: metric %s is %v, want > 0", w.Name, trace, name, v)
				}
			}
		}
	}
}

// TestLedgerRepeats runs the traced cold-large twice on one seed: the work
// ledger must come out identical.
func TestLedgerRepeats(t *testing.T) {
	cfg := config{workload: "cold-large", seed: 3, seconds: time.Millisecond, trace: true, size: tinySizes}
	var ledgers []*ledger
	for i := 0; i < 2; i++ {
		o, err := runCold(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if o.Ledger == nil || len(o.Ledger.Admitted) == 0 {
			t.Fatal("no work ledger")
		}
		ledgers = append(ledgers, o.Ledger)
	}
	if !reflect.DeepEqual(ledgers[0].Admitted, ledgers[1].Admitted) {
		t.Errorf("ledger differs between runs:\n%v\n%v", ledgers[0].Admitted, ledgers[1].Admitted)
	}
}

// TestChecksCatchPerturbation feeds each correctness check a deliberately
// perturbed placement, so a check that went dead would fail here.
func TestChecksCatchPerturbation(t *testing.T) {
	sc := corpus.ToPublic(expt.BenchScenario(11, 5, 1))
	p, err := sc.Solve(hipo.WithEps(coldEps))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Chargers) == 0 || p.Utility == 0 {
		t.Fatal("tiny scenario placed nothing")
	}

	o := newOutcome()
	checkUtility(o, sc, p, "unperturbed")
	checkAgainstCold(o, snapshot{sc: sc, p: p})
	body, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAgainstLibrary(sc, body); err != nil {
		o.fail("library: %v", err)
	}
	if o.failed() != 0 {
		t.Fatalf("checks fail on a correct placement: %v", o.Failures)
	}

	moved := *p
	moved.Chargers = append([]hipo.PlacedCharger(nil), p.Chargers...)
	moved.Chargers[0].Orient += math.Pi
	moved.Chargers[0].Pos.X = sc.Min.X
	ulp := *p
	ulp.Utility = math.Nextafter(p.Utility, 2)
	// A moved charger need not change the exact utility, so only the
	// placement comparisons must catch it; a one-ulp utility change must be
	// caught by all three checks.
	for _, tc := range []struct {
		name string
		bad  *hipo.Placement
		want int
	}{{"moved charger", &moved, 2}, {"utility off by one ulp", &ulp, 3}} {
		o := newOutcome()
		checkUtility(o, sc, tc.bad, tc.name)
		checkAgainstCold(o, snapshot{sc: sc, p: tc.bad})
		b, err := json.Marshal(tc.bad)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkAgainstLibrary(sc, b); err != nil {
			o.fail("library: %v", err)
		}
		if got := o.failed(); got < tc.want {
			t.Errorf("%s: %d checks failed, want at least %d: %v", tc.name, got, tc.want, o.Failures)
		}
	}
}

// TestSelfTime checks the self-time arithmetic on a hand-built span tree.
func TestSelfTime(t *testing.T) {
	r := &recorder{spans: []span{
		{ID: 1, Name: "op", StartNs: 0, EndNs: 10e6},
		{ID: 2, Parent: 1, Name: "a", StartNs: 1e6, EndNs: 4e6},
		{ID: 3, Parent: 1, Name: "b", StartNs: 3e6, EndNs: 6e6},
		{ID: 4, Parent: 3, Name: "a", StartNs: 4e6, EndNs: 5e6},
		{ID: 5, Parent: 1, Name: "after", StartNs: 12e6, EndNs: 13e6},
	}}
	got := r.selfMs()
	want := map[string]float64{"op": 5, "a": 4, "b": 2, "after": 1}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("self %s = %v ms, want %v", k, got[k], v)
		}
	}
}
