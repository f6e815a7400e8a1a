package lint

import (
	"encoding/json"
	"go/token"
	"io"
	"path/filepath"
)

// SARIF 2.1.0 output. Only the slice of the schema that static-analysis
// consumers (GitHub code scanning, VS Code SARIF viewers) actually read is
// modeled: one run, one tool driver carrying a rule descriptor per
// analyzer, and one result per diagnostic with a physical location.
//
// https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID           string          `json:"ruleId"`
	RuleIndex        int             `json:"ruleIndex"`
	Level            string          `json:"level"`
	Message          sarifMessage    `json:"message"`
	Locations        []sarifLocation `json:"locations"`
	RelatedLocations []sarifLocation `json:"relatedLocations,omitempty"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
	Message          *sarifMessage         `json:"message,omitempty"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF renders diags as a SARIF 2.1.0 log on w. Every analyzer in
// analyzers gets a rule descriptor whether or not it produced findings, so consumers can tell "ran clean" from "did not run".
// File paths are made relative to root (when possible) and
// slash-separated, as SARIF requires repo-relative URIs. Related locations
// (hotpath call chains, lockorder cycle edges) are carried through as
// relatedLocations.
func WriteSARIF(w io.Writer, analyzers []*Analyzer, diags []Diagnostic, root string) error {
	driver := sarifDriver{
		Name:  "hipolint",
		Rules: []sarifRule{},
	}
	ruleIndex := make(map[string]int)
	addRule := func(name, doc string) {
		if _, ok := ruleIndex[name]; ok {
			return
		}
		ruleIndex[name] = len(driver.Rules)
		driver.Rules = append(driver.Rules, sarifRule{
			ID:               name,
			ShortDescription: sarifMessage{Text: doc},
		})
	}
	for _, a := range analyzers {
		addRule(a.Name, a.Doc)
	}
	// Diagnostics outside the suite (e.g. lintdirective for malformed
	// ignore comments) still need a descriptor for their ruleId.
	for _, d := range diags {
		addRule(d.Analyzer, "diagnostic source not in the configured analyzer set")
	}

	location := func(pos token.Position, msg string) sarifLocation {
		loc := sarifLocation{
			PhysicalLocation: sarifPhysicalLocation{
				ArtifactLocation: sarifArtifactLocation{URI: relSlashPath(root, pos.Filename)},
				Region: sarifRegion{
					StartLine:   pos.Line,
					StartColumn: pos.Column,
				},
			},
		}
		if msg != "" {
			loc.Message = &sarifMessage{Text: msg}
		}
		return loc
	}
	results := []sarifResult{}
	for _, d := range diags {
		r := sarifResult{
			RuleID:    d.Analyzer,
			RuleIndex: ruleIndex[d.Analyzer],
			Level:     "warning",
			Message:   sarifMessage{Text: d.Message},
			Locations: []sarifLocation{location(d.Pos, "")},
		}
		for _, rel := range d.Related {
			r.RelatedLocations = append(r.RelatedLocations, location(rel.Pos, rel.Message))
		}
		results = append(results, r)
	}

	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: driver}, Results: results}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// relSlashPath rewrites file relative to root with forward slashes; when
// that is impossible (different volume, empty root) the cleaned original
// is used.
func relSlashPath(root, file string) string {
	if root != "" {
		if rel, err := filepath.Rel(root, file); err == nil && !filepath.IsAbs(rel) &&
			rel != ".." && !stringsHasPrefixSlash(rel) {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(filepath.Clean(file))
}

func stringsHasPrefixSlash(rel string) bool {
	return len(rel) >= 3 && rel[0] == '.' && rel[1] == '.' && (rel[2] == '/' || rel[2] == filepath.Separator)
}
