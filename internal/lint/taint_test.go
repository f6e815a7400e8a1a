package lint_test

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hipo/internal/lint"
)

var (
	taintProgOnce sync.Once
	taintProg     *lint.Program
)

// taintProgram loads testdata/taint once and builds its call graph.
func taintProgram(t *testing.T) *lint.Program {
	t.Helper()
	taintProgOnce.Do(func() {
		pkg := loadTestPackage(t, "hipo/internal/tnt", filepath.Join("testdata", "taint"))
		taintProg = lint.BuildProgram([]*lint.Package{pkg})
	})
	if taintProg == nil {
		t.Fatal("taint fixture failed to load in an earlier test")
	}
	return taintProg
}

// TestTaintSummaries is the table-driven contract of the taint engine:
// order taint closes over SCCs, escapes closures, follows spawn families
// into channel fan-in, survives parameter round-trips, is killed by
// canonicalizing sorts, and is masked by //hipo:order-invariant.
func TestTaintSummaries(t *testing.T) {
	prog := taintProgram(t)
	eng := prog.Taint()
	cases := []struct {
		fn   string
		want lint.TaintSet
	}{
		{fn: "hipo/internal/tnt.MutualA", want: lint.TaintSet(0).With(lint.TaintMapOrder)},
		{fn: "hipo/internal/tnt.MutualB", want: lint.TaintSet(0).With(lint.TaintMapOrder)},
		{fn: "hipo/internal/tnt.ViaClosure", want: lint.TaintSet(0).With(lint.TaintMapOrder)},
		{fn: "hipo/internal/tnt.FanIn", want: lint.TaintSet(0).With(lint.TaintGoOrder)},
		{fn: "hipo/internal/tnt.Selected", want: lint.TaintSet(0).With(lint.TaintSelectOrder)},
		{fn: "hipo/internal/tnt.ViaEcho", want: lint.TaintSet(0).With(lint.TaintMapOrder)},
		{fn: "hipo/internal/tnt.SortedKeys", want: 0},
		{fn: "hipo/internal/tnt.Annotated", want: 0},
		{fn: "hipo/internal/tnt.ViaAnnotated", want: 0},
		{fn: "hipo/internal/tnt.IndexedMerge", want: 0},
	}
	for _, tc := range cases {
		node := prog.Funcs[tc.fn]
		if node == nil {
			t.Errorf("%s: no call-graph node (keys drifted?)", tc.fn)
			continue
		}
		sum := eng.Summaries[node]
		if sum == nil {
			t.Errorf("%s: no taint summary", tc.fn)
			continue
		}
		if got := sum.Ret.Order(); got != tc.want {
			t.Errorf("%s: return order taint = %v, want %v", tc.fn, got, tc.want)
		}
	}
}

// TestTaintChains: a tainted summary must carry a source chain whose first
// step is the actual source position inside the fixture.
func TestTaintChains(t *testing.T) {
	prog := taintProgram(t)
	eng := prog.Taint()
	node := prog.Funcs["hipo/internal/tnt.ViaEcho"]
	if node == nil {
		t.Fatal("no node for ViaEcho")
	}
	sum := eng.Summaries[node]
	if sum == nil || !sum.Ret.Has(lint.TaintMapOrder) {
		t.Fatalf("ViaEcho summary = %+v, want map-order tainted", sum)
	}
	c := sum.RetChains[lint.TaintMapOrder]
	if c == nil || len(c.Steps) == 0 {
		t.Fatal("ViaEcho carries no map-order chain")
	}
	first := c.Steps[0]
	if !strings.HasSuffix(first.Pos.Filename, "a.go") || first.Pos.Line == 0 {
		t.Errorf("chain source at %s, want a position inside the fixture", first.Pos)
	}
	if !strings.Contains(first.Note, "nondeterministic iteration order") {
		t.Errorf("chain source note = %q, want an iteration-order source note", first.Note)
	}
}

// TestTaintEngineCached: Program.Taint memoizes — the engine is built once
// and shared by detorder, fpassoc, and the report builder.
func TestTaintEngineCached(t *testing.T) {
	prog := taintProgram(t)
	if prog.Taint() != prog.Taint() {
		t.Error("Program.Taint rebuilt the engine on the second call")
	}
}

// TestTaintReportOnFixture: the report carries the schema tag, inventories
// the fixture's order-invariant annotation, and counts zero sink findings
// (the fixture has no sink surfaces under this import path).
func TestTaintReportOnFixture(t *testing.T) {
	prog := taintProgram(t)
	rep, err := lint.BuildReport(prog)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != lint.ReportSchema {
		t.Errorf("schema = %q, want %q", rep.Schema, lint.ReportSchema)
	}
	if rep.Sinks == nil || rep.Roots == nil || rep.OrderInvariant == nil {
		t.Error("report arrays must be non-nil for stable JSON")
	}
	var found bool
	for _, oi := range rep.OrderInvariant {
		if oi.Func == "hipo/internal/tnt.Annotated" {
			found = true
			if oi.Reason == "" {
				t.Error("order-invariant inventory entry lost its reason")
			}
		}
	}
	if !found {
		t.Errorf("order-invariant inventory %+v missing Annotated", rep.OrderInvariant)
	}
}
