package lint_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"hipo/internal/lint"
)

func sampleDiags() []lint.Diagnostic {
	d1 := lint.Diagnostic{Analyzer: "nanflow", Message: "denominator b is never compared"}
	d1.Pos.Filename, d1.Pos.Line, d1.Pos.Column = "/repo/internal/power/power.go", 137, 39
	rel := lint.RelatedPos{Message: "call chain step 1: pdcs.Extract -> power.Model"}
	rel.Pos.Filename, rel.Pos.Line, rel.Pos.Column = "/repo/internal/pdcs/pdcs.go", 42, 3
	d1.Related = []lint.RelatedPos{rel}
	d2 := lint.Diagnostic{Analyzer: "mutexguard", Message: "s.items is guarded by s.mu"}
	d2.Pos.Filename, d2.Pos.Line, d2.Pos.Column = "/repo/internal/jobs/jobs.go", 80, 9
	return []lint.Diagnostic{d1, d2}
}

// TestWriteSARIF checks the log is valid JSON with one rule descriptor per
// analyzer (findings or not), one result per diagnostic, and repo-relative
// slash-separated URIs.
func TestWriteSARIF(t *testing.T) {
	var buf bytes.Buffer
	if err := lint.WriteSARIF(&buf, lint.Analyzers(), sampleDiags(), "/repo"); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
				RelatedLocations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
					} `json:"physicalLocation"`
					Message struct {
						Text string `json:"text"`
					} `json:"message"`
				} `json:"relatedLocations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	rules := map[string]bool{}
	for _, r := range log.Runs[0].Tool.Driver.Rules {
		if r.ShortDescription.Text == "" {
			t.Errorf("rule %q has empty description", r.ID)
		}
		rules[r.ID] = true
	}
	for _, a := range lint.Analyzers() {
		if !rules[a.Name] {
			t.Errorf("missing rule descriptor for analyzer %q", a.Name)
		}
	}
	results := log.Runs[0].Results
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	uri := results[0].Locations[0].PhysicalLocation.ArtifactLocation.URI
	if uri != "internal/power/power.go" {
		t.Errorf("URI = %q, want repo-relative internal/power/power.go", uri)
	}
	if got := results[0].Locations[0].PhysicalLocation.Region.StartLine; got != 137 {
		t.Errorf("startLine = %d, want 137", got)
	}
	rel := results[0].RelatedLocations
	if len(rel) != 1 {
		t.Fatalf("got %d relatedLocations, want 1", len(rel))
	}
	if got := rel[0].PhysicalLocation.ArtifactLocation.URI; got != "internal/pdcs/pdcs.go" {
		t.Errorf("related URI = %q, want repo-relative internal/pdcs/pdcs.go", got)
	}
	if rel[0].Message.Text == "" {
		t.Error("related location lost its message")
	}
}

// TestWriteSARIFEmpty: a clean run still lists every rule, with an empty
// (not null) results array.
func TestWriteSARIFEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := lint.WriteSARIF(&buf, lint.Analyzers(), nil, ""); err != nil {
		t.Fatal(err)
	}
	var log map[string]any
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"results": null`)) {
		t.Error("results serialized as null; SARIF consumers require an array")
	}
}
