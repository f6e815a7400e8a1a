package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// ReportSchema versions the JSON layout of the hipolint report. Consumers
// (the CI drift guard, the repository self-gate, ad-hoc jq queries) pin on
// it.
const ReportSchema = "hipolint-report/v1"

// Report is the machine-readable outcome of the whole-program layers:
// every //hipo:hotpath root with its effect and order verdicts, every
// observed bit-identity sink, the //hipo:order-invariant contract
// inventory, and the surviving determinism findings. CI uploads it as a
// build artifact so a hot path growing a new effect, or a sink growing a
// taint, is visible in the report diff.
type Report struct {
	Schema string       `json:"schema"`
	Roots  []ReportRoot `json:"roots"`
	// Sinks lists every sink site the taint engine observed, sorted by
	// position. Clean means no order taint reaches it.
	Sinks []ReportSink `json:"sinks"`
	// OrderInvariant inventories the //hipo:order-invariant contracts.
	OrderInvariant []ReportAnnotation `json:"orderInvariant"`
	// Findings counts surviving diagnostics per analyzer of the
	// determinism layer (detorder, fpassoc, sharedwrite) plus
	// lintdirective.
	Findings map[string]int `json:"findings"`
}

// ReportRoot is one annotated hot-path root.
type ReportRoot struct {
	// Func is the root's canonical call-graph key (pkgpath.Name).
	Func string `json:"func"`
	File string `json:"file"`
	Line int    `json:"line"`
	// Deny lists the effects the annotation forbids.
	Deny []string `json:"deny"`
	// Effects lists every effect reachable from the root, allowed or not.
	Effects []string `json:"effects"`
	// Reachable counts program functions reachable from the root
	// (external calls are folded into summaries, not counted).
	Reachable int `json:"reachable"`
	// Clean reports whether Effects ∩ Deny is empty — i.e. the root
	// passes the hotpath analyzer.
	Clean bool `json:"clean"`
	// OrderTaints names the order taints of the root's return summary.
	OrderTaints []string `json:"orderTaints"`
	OrderClean  bool     `json:"orderClean"`
}

// ReportSink is one observed sink.
type ReportSink struct {
	// Kind is placement-return, scenario-hash, report-writer, or
	// prometheus-text.
	Kind string `json:"kind"`
	// Func is the family root's canonical call-graph key.
	Func string `json:"func"`
	File string `json:"file"`
	Line int    `json:"line"`
	// Taints names the order taints reaching the sink; empty when clean.
	Taints []string `json:"taints"`
	Clean  bool     `json:"clean"`
	// Chain renders the source-to-sink steps when tainted.
	Chain []string `json:"chain,omitempty"`
	// Suppressed carries the covering //hipo:order-invariant reason.
	Suppressed string `json:"suppressed,omitempty"`
}

// ReportAnnotation is one //hipo:order-invariant contract.
type ReportAnnotation struct {
	Func   string `json:"func"`
	Reason string `json:"reason"`
}

// BuildReport runs (or reuses) the effect summaries, the taint engine and
// the three determinism analyzers, and assembles the report.
func BuildReport(prog *Program) (*Report, error) {
	eng := prog.Taint()
	rep := &Report{
		Schema:         ReportSchema,
		Roots:          []ReportRoot{},
		Sinks:          []ReportSink{},
		OrderInvariant: []ReportAnnotation{},
		Findings:       map[string]int{"detorder": 0, "fpassoc": 0, "sharedwrite": 0},
	}
	for _, pkg := range prog.Packages {
		ann := pkg.Annotations()
		for fd, deny := range ann.HotPathRoots {
			node := prog.DeclNode(pkg, fd)
			if node == nil {
				continue
			}
			var order TaintSet
			if sum := eng.Summaries[node]; sum != nil {
				order = sum.Ret.Order()
			}
			rep.Roots = append(rep.Roots, ReportRoot{
				Func:        node.Key,
				File:        node.Pos.Filename,
				Line:        node.Pos.Line,
				Deny:        effectSetNames(deny),
				Effects:     effectSetNames(node.Summary),
				Reachable:   countReachable(node),
				Clean:       node.Summary.Intersect(deny) == EffNone,
				OrderTaints: taintSetNames(order),
				OrderClean:  order == 0,
			})
		}
		for fd, reason := range ann.OrderInvariant {
			if node := prog.DeclNode(pkg, fd); node != nil {
				rep.OrderInvariant = append(rep.OrderInvariant, ReportAnnotation{Func: node.Key, Reason: reason})
			}
		}
	}
	sort.Slice(rep.Roots, func(i, j int) bool { return rep.Roots[i].Func < rep.Roots[j].Func })
	sort.Slice(rep.OrderInvariant, func(i, j int) bool { return rep.OrderInvariant[i].Func < rep.OrderInvariant[j].Func })
	for _, s := range eng.Sinks {
		sink := ReportSink{
			Kind:       s.Kind,
			Func:       s.Func.Key,
			File:       s.Pos.Filename,
			Line:       s.Pos.Line,
			Taints:     taintSetNames(s.Taints),
			Clean:      s.Taints == 0,
			Suppressed: s.Suppressed,
		}
		for _, t := range s.Taints.Taints() {
			c := s.Chains[t]
			if c == nil {
				continue
			}
			for i, step := range c.Steps {
				sink.Chain = append(sink.Chain, fmt.Sprintf("%s %d/%d %s:%d: %s",
					t, i+1, len(c.Steps), step.Pos.Filename, step.Pos.Line, step.Note))
			}
		}
		rep.Sinks = append(rep.Sinks, sink)
	}
	diags, err := Run(prog, []*Analyzer{DetOrderAnalyzer, FPAssocAnalyzer, SharedWriteAnalyzer})
	if err != nil {
		return nil, err
	}
	for _, d := range diags {
		rep.Findings[d.Analyzer]++
	}
	return rep, nil
}

// WriteReport renders the report as indented JSON on w.
func WriteReport(w io.Writer, rep *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func effectSetNames(s EffectSet) []string {
	names := []string{}
	for _, e := range s.Effects() {
		names = append(names, e.Name())
	}
	return names
}

func taintSetNames(s TaintSet) []string {
	names := []string{}
	for _, t := range s.Taints() {
		names = append(names, t.String())
	}
	return names
}

// countReachable counts the distinct program functions reachable from
// root over every edge kind, root included.
func countReachable(root *FuncNode) int {
	seen := map[*FuncNode]bool{root: true}
	queue := []*FuncNode{root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Edges {
			if !seen[e.Callee] {
				seen[e.Callee] = true
				queue = append(queue, e.Callee)
			}
		}
	}
	return len(seen)
}
