package render

// The reflective SARIF encoding the renderer used before it appended
// the log itself: the log's struct form, marshalled with
// json.MarshalIndent. It is kept as the byte-for-byte reference the
// encoder must match (TestSARIFMatchesReference, FuzzSARIF).

import (
	"encoding/json"
	"sort"

	"weblint/internal/warn"
)

// SARIF 2.1.0 document shapes (the subset weblint emits).
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
	Version        string      `json:"version,omitempty"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID                   string           `json:"id"`
	ShortDescription     *sarifText       `json:"shortDescription,omitempty"`
	FullDescription      *sarifText       `json:"fullDescription,omitempty"`
	DefaultConfiguration *sarifRuleConfig `json:"defaultConfiguration,omitempty"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifRuleConfig struct {
	Level string `json:"level"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
	Fixes     []sarifFix      `json:"fixes,omitempty"`
}

// SARIF fix objects: a description plus artifact changes whose
// replacements carry byte-offset deletedRegions (weblint edits are
// byte spans over the checked document).
type sarifFix struct {
	Description sarifText             `json:"description"`
	Changes     []sarifArtifactChange `json:"artifactChanges"`
}

type sarifArtifactChange struct {
	ArtifactLocation sarifArtifact      `json:"artifactLocation"`
	Replacements     []sarifReplacement `json:"replacements"`
}

type sarifReplacement struct {
	DeletedRegion   sarifByteRegion `json:"deletedRegion"`
	InsertedContent *sarifText      `json:"insertedContent,omitempty"`
}

type sarifByteRegion struct {
	ByteOffset int `json:"byteOffset"`
	ByteLength int `json:"byteLength"`
}

// sarifFixes converts a message's optional fix.
func sarifFixes(m warn.Message) []sarifFix {
	if m.Fix == nil {
		return nil
	}
	reps := make([]sarifReplacement, len(m.Fix.Edits))
	for i, e := range m.Fix.Edits {
		reps[i] = sarifReplacement{
			DeletedRegion: sarifByteRegion{ByteOffset: e.Start, ByteLength: e.End - e.Start},
		}
		if e.Text != "" {
			reps[i].InsertedContent = &sarifText{Text: e.Text}
		}
	}
	return []sarifFix{{
		Description: sarifText{Text: m.Fix.Label},
		Changes: []sarifArtifactChange{{
			ArtifactLocation: sarifArtifact{URI: m.File},
			Replacements:     reps,
		}},
	}}
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           *sarifRegion  `json:"region,omitempty"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// referenceSARIF renders msgs the reflective way: the rules table and
// results as structs, then one json.MarshalIndent call.
func referenceSARIF(msgs []warn.Message) ([]byte, error) {
	// Rules: the distinct IDs referenced, sorted for determinism.
	idSet := map[string]int{}
	var ids []string
	for _, m := range msgs {
		if _, ok := idSet[m.ID]; !ok {
			idSet[m.ID] = 0
			ids = append(ids, m.ID)
		}
	}
	sort.Strings(ids)
	rules := make([]sarifRule, len(ids))
	for i, id := range ids {
		idSet[id] = i
		rule := sarifRule{ID: id}
		if d := warn.Lookup(id); d != nil {
			rule.DefaultConfiguration = &sarifRuleConfig{Level: sarifLevel(d.Category)}
			if d.Format != "" {
				rule.ShortDescription = &sarifText{Text: d.Format}
			}
			if d.Explain != "" {
				rule.FullDescription = &sarifText{Text: d.Explain}
			}
		}
		rules[i] = rule
	}

	results := make([]sarifResult, len(msgs))
	for i, m := range msgs {
		res := sarifResult{
			RuleID:    m.ID,
			RuleIndex: idSet[m.ID],
			Level:     sarifLevel(m.Category),
			Message:   sarifText{Text: m.Text},
			Fixes:     sarifFixes(m),
		}
		region := &sarifRegion{StartLine: m.Line, StartColumn: m.Col}
		if region.StartLine < 1 {
			// SARIF requires startLine >= 1; document-level messages
			// anchor at the top.
			region.StartLine = 1
		}
		res.Locations = []sarifLocation{{
			PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: m.File},
				Region:           region,
			},
		}}
		results[i] = res
	}

	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool: sarifTool{Driver: sarifDriver{
				Name:           "weblint",
				Version:        "2.0",
				InformationURI: "https://www.usenix.org/conference/1998-usenix-annual-technical-conference",
				Rules:          rules,
			}},
			Results: results,
		}},
	}
	out, err := json.MarshalIndent(log, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
