package render

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"weblint/internal/config"
	"weblint/internal/corpus"
	"weblint/internal/lint"
	"weblint/internal/warn"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureDoc exercises all three categories and pushes
// attacker-controlled attribute values into message text: the ALIGN
// value carries a double quote, markup metacharacters and a backslash,
// all of which must come out of the JSON renderers escaped.
const fixtureDoc = `<HTML>
<HEAD><TITLE>fixture</TITLE></HEAD>
<BODY>
<IMG SRC="x.gif">
<P ALIGN='evil"<script>&\'>text</P>
<B>bold</B>
</BODY>
</HTML>
`

// fixtureMessages lints the fixture the way the CLI does: slice API,
// source order, with the style check physical-font enabled so the
// stream carries every category.
func fixtureMessages(t *testing.T) []warn.Message {
	t.Helper()
	s := config.NewSettings()
	if err := s.Set.Enable("physical-font"); err != nil {
		t.Fatal(err)
	}
	l, err := lint.New(lint.Options{Settings: s})
	if err != nil {
		t.Fatal(err)
	}
	msgs := l.CheckString("fixture.html", fixtureDoc)
	if len(msgs) == 0 {
		t.Fatal("fixture produced no messages")
	}
	var have [3]bool
	for _, m := range msgs {
		have[m.Category] = true
	}
	if !have[warn.Error] || !have[warn.Warning] || !have[warn.Style] {
		t.Fatalf("fixture must produce all three categories, got %+v", msgs)
	}
	return msgs
}

// renderAll streams msgs through a fresh renderer of the given style.
func renderAll(t *testing.T, style string, msgs []warn.Message) string {
	t.Helper()
	var b bytes.Buffer
	r, err := New(style, &b)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		if !r.Write(m) {
			t.Fatalf("%s renderer cancelled mid-stream", style)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatalf("%s Close: %v", style, err)
	}
	return b.String()
}

// TestGolden renders the fixture stream in every style and compares
// against the checked-in golden files. Run with -update to regenerate.
func TestGolden(t *testing.T) {
	msgs := fixtureMessages(t)
	for _, style := range Styles() {
		t.Run(style, func(t *testing.T) {
			got := renderAll(t, style, msgs)
			golden := filepath.Join("testdata", style+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run go test ./internal/render -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s output differs from golden:\n--- got ---\n%s--- want ---\n%s", style, got, want)
			}
		})
	}
}

// TestJSONEscaping: the attacker-controlled attribute value round-trips
// through the JSON renderer intact, and the raw bytes never contain
// unescaped markup.
func TestJSONEscaping(t *testing.T) {
	msgs := fixtureMessages(t)
	out := renderAll(t, "json", msgs)
	if strings.Contains(out, "<script>") {
		t.Error("JSON output contains unescaped <script>")
	}
	found := false
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if !strings.HasPrefix(lines[len(lines)-1], `{"summary":`) {
		t.Errorf("stream does not end with a summary line: %q", lines[len(lines)-1])
	}
	for _, line := range lines[:len(lines)-1] {
		var m jsonMessage
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %q is not valid JSON: %v", line, err)
		}
		if strings.Contains(m.Text, `evil"<script>&\`) {
			found = true
		}
		if m.ID == "" || m.File != "fixture.html" || m.Line < 1 {
			t.Errorf("degenerate JSON message: %+v", m)
		}
	}
	if !found {
		t.Error("attribute value did not round-trip through JSON")
	}
}

// TestSARIFMapping: the SARIF log parses, carries one result per
// message, and maps every category to its SARIF level.
func TestSARIFMapping(t *testing.T) {
	msgs := fixtureMessages(t)
	out := renderAll(t, "sarif", msgs)

	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID                   string `json:"id"`
						DefaultConfiguration struct {
							Level string `json:"level"`
						} `json:"defaultConfiguration"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Errorf("version = %q schema = %q", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "weblint" {
		t.Fatalf("runs = %+v", log.Runs)
	}
	run := log.Runs[0]
	if len(run.Results) != len(msgs) {
		t.Fatalf("results = %d, want %d", len(run.Results), len(msgs))
	}

	wantLevel := map[warn.Category]string{
		warn.Error:   "error",
		warn.Warning: "warning",
		warn.Style:   "note",
	}
	seenLevels := map[string]bool{}
	for i, res := range run.Results {
		m := msgs[i]
		if res.RuleID != m.ID || res.Level != wantLevel[m.Category] {
			t.Errorf("result %d: ruleId=%s level=%s, want %s/%s", i, res.RuleID, res.Level, m.ID, wantLevel[m.Category])
		}
		seenLevels[res.Level] = true
		if res.RuleIndex < 0 || res.RuleIndex >= len(run.Tool.Driver.Rules) ||
			run.Tool.Driver.Rules[res.RuleIndex].ID != m.ID {
			t.Errorf("result %d: ruleIndex %d does not resolve to %s", i, res.RuleIndex, m.ID)
		}
		loc := res.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI != "fixture.html" || loc.Region.StartLine != m.Line {
			t.Errorf("result %d location = %+v", i, loc)
		}
	}
	for _, lvl := range []string{"error", "warning", "note"} {
		if !seenLevels[lvl] {
			t.Errorf("no result with level %q", lvl)
		}
	}
	// Rules must be sorted and carry default levels.
	rules := run.Tool.Driver.Rules
	for i := 1; i < len(rules); i++ {
		if rules[i-1].ID >= rules[i].ID {
			t.Errorf("rules not sorted: %s >= %s", rules[i-1].ID, rules[i].ID)
		}
	}
}

// TestRenderersDeterministic: rendering the same stream twice produces
// identical bytes for every style.
func TestRenderersDeterministic(t *testing.T) {
	msgs := fixtureMessages(t)
	for _, style := range Styles() {
		if a, b := renderAll(t, style, msgs), renderAll(t, style, msgs); a != b {
			t.Errorf("%s output is not deterministic", style)
		}
	}
}

func TestNewUnknownStyle(t *testing.T) {
	if _, err := New("yaml", &bytes.Buffer{}); err == nil {
		t.Error("New accepted an unknown style")
	}
	if Valid("yaml") || !Valid("sarif") {
		t.Error("Valid misclassifies styles")
	}
}

func TestEmptySARIF(t *testing.T) {
	var b bytes.Buffer
	r := NewSARIF(&b)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	var log map[string]any
	if err := json.Unmarshal(b.Bytes(), &log); err != nil {
		t.Fatalf("empty SARIF log is not valid JSON: %v", err)
	}
	if !strings.Contains(b.String(), `"results": []`) {
		t.Errorf("empty log must carry an empty results array:\n%s", b.String())
	}
}

// jsonMessage is the JSON Lines shape of one diagnostic, as the
// renderer marshalled it with encoding/json before it appended each
// line itself. With jsonSummary it is the byte-for-byte reference the
// renderer must match (TestJSONMatchesReference, FuzzJSONLines).
type jsonMessage struct {
	ID       string      `json:"id"`
	Category string      `json:"category"`
	File     string      `json:"file"`
	Line     int         `json:"line"`
	Col      int         `json:"col"`
	Text     string      `json:"text"`
	Fixes    []*warn.Fix `json:"fixes,omitempty"`
}

// jsonFixes wraps a message's optional fix as the "fixes" array.
func jsonFixes(m warn.Message) []*warn.Fix {
	if m.Fix == nil {
		return nil
	}
	return []*warn.Fix{m.Fix}
}

// jsonSummary is the shape of the trailing summary line; encoding/json
// sorts the suppressed map's keys.
type jsonSummary struct {
	Errors     int            `json:"errors"`
	Warnings   int            `json:"warnings"`
	Style      int            `json:"style"`
	Suppressed map[string]int `json:"suppressed,omitempty"`
}

// referenceJSON renders a stream the reflective way: one json.Marshal
// per message, then one for the summary of the stream and of the
// suppressed IDs.
func referenceJSON(msgs []warn.Message, suppressed []string) ([]byte, error) {
	var out []byte
	var sum warn.Summary
	for _, id := range suppressed {
		sum.AddSuppressed(id)
	}
	for _, m := range msgs {
		sum.Add(m)
		line, err := json.Marshal(jsonMessage{
			ID:       m.ID,
			Category: m.Category.String(),
			File:     m.File,
			Line:     m.Line,
			Col:      m.Col,
			Text:     m.Text,
			Fixes:    jsonFixes(m),
		})
		if err != nil {
			return nil, err
		}
		out = append(append(out, line...), '\n')
	}
	line, err := json.Marshal(struct {
		Summary jsonSummary `json:"summary"`
	}{jsonSummary{
		Errors:     sum.Errors,
		Warnings:   sum.Warnings,
		Style:      sum.Style,
		Suppressed: sum.Suppressed,
	}})
	if err != nil {
		return nil, err
	}
	return append(append(out, line...), '\n'), nil
}

// requireReferenceJSON renders a stream through NewJSON, suppressions
// first as a Recorder replays them, and fails unless the bytes equal
// the reference and every Write carried exactly one line.
func requireReferenceJSON(t *testing.T, name string, msgs []warn.Message, suppressed []string) {
	t.Helper()
	want, err := referenceJSON(msgs, suppressed)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	var got chunkRecorder
	r := NewJSON(&got)
	rec := &warn.Recorder{SuppressedIDs: suppressed}
	rec.Messages = msgs
	if !rec.Replay(r) {
		t.Fatalf("%s: renderer cancelled the stream", name)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("%s: Close: %v", name, err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		at := 0
		for at < min(got.Len(), len(want)) && got.Bytes()[at] == want[at] {
			at++
		}
		t.Fatalf("%s: JSON Lines differ from the reference at byte %d of %d:\n--- got ---\n%s\n--- want ---\n%s",
			name, at, len(want), excerpt(got.Bytes(), at), excerpt(want, at))
	}
	if lines := bytes.Count(want, []byte("\n")); got.writes != lines {
		t.Errorf("%s: %d writes for %d lines, want one write per line", name, got.writes, lines)
	}
}

// TestJSONMatchesReference: the appending renderer writes exactly the
// bytes encoding/json writes, over the lint suite, error-dense corpus
// documents (whose findings carry fixes), a stream with suppressions
// and the empty stream.
func TestJSONMatchesReference(t *testing.T) {
	l := lint.MustNew(lint.Options{Pedantic: true})
	paths, err := filepath.Glob(filepath.Join("..", "lint", "testdata", "suite", "*.html"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("lint suite: %v (%d files)", err, len(paths))
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		requireReferenceJSON(t, path, l.CheckString(filepath.Base(path), string(src)), nil)
	}
	dense := l.CheckString("dense.html", corpus.GenerateSized(2, 64<<10, corpus.Uniform(0.25)))
	requireReferenceJSON(t, "error-dense corpus", dense, []string{"physical-font", "img-alt", "physical-font", "a\u2028<b>"})
	requireReferenceJSON(t, "fixture", fixtureMessages(t), nil)
	requireReferenceJSON(t, "empty stream", nil, nil)
}

// FuzzJSONLines builds message streams from fuzzed strings and
// integers and requires the renderer to match the encoding/json
// reference byte for byte: escaping of control bytes, invalid UTF-8,
// markup and U+2028 in every string field, unknown categories, fixes
// with nil, empty and several edits, and suppressed rules in the
// summary.
func FuzzJSONLines(f *testing.F) {
	f.Add("img-alt", "IMG does not have ALT text defined", "page.html", `insert ALT=""`, ` ALT=""`, 4, 1, 1, 66, 66, uint8(3), "physical-font", true)
	f.Add("attribute-value", "bad \xff\xfe value \xc3(", "\xe2\x82", "label\xff", "\xed\xa0\x80", 1, 0, 0, 0, 0, uint8(1), "\xff", true)
	f.Add("doctype-first", "ctl \x00\x01\x1f\x7f\b\f\n\r\t end", "a\tb.html", "\x1b[0m", "\r\n", 0, 0, 1, 3, 9, uint8(4), "\x00", false)
	f.Add("no-such-rule", "line\u2028para\u2029 ok \ufffd", "sep\u2028.html", "\u2029", "\u2028", -7, -3, 7, 9, 3, uint8(2), "\u2028", true)
	f.Add("here-anchor", `<script>alert("x") & 'y' \ </script>`, `C:\site\<a>&.html`, `<>&"\`, `"&amp;"`, 1<<40, 1<<20, 2, -1, 5, uint8(0), `<>&"`, true)
	f.Add("", "", "", "", "", 0, 0, -1, 0, 0, uint8(5), "", true)
	f.Fuzz(func(t *testing.T, id, text, file, label, edit string, line, col, cat, start, end int, shape uint8, suppressed string, withSuppressed bool) {
		m := warn.Message{ID: id, Category: warn.Category(cat), File: file, Line: line, Col: col, Text: text}
		switch shape % 6 {
		case 1:
			m.Fix = &warn.Fix{Label: label} // nil edits
		case 2:
			m.Fix = &warn.Fix{Label: label, Edits: []warn.Edit{}}
		case 3:
			m.Fix = &warn.Fix{Label: label, Edits: []warn.Edit{{Start: start, End: start, Text: edit}}}
		case 4:
			m.Fix = &warn.Fix{Label: label, Edits: []warn.Edit{{Start: start, End: end}, {Start: end, End: end + 1, Text: edit}}}
		}
		known := warn.Message{ID: "img-alt", Category: warn.Warning, File: file, Line: 2, Text: text}
		var sup []string
		if withSuppressed {
			// The fuzzed ID beside registered ones, so keys sort among
			// others and one counts twice.
			sup = []string{"physical-font", suppressed, "img-alt", suppressed}
		}
		requireReferenceJSON(t, "fuzzed stream", []warn.Message{known, m, m, known}, sup)
	})
}

// TestJSONStopsAtFirstWriteError: once a line fails to write, the
// renderer cancels the stream, writes nothing more (no summary line
// either) and Close returns the writer's error.
func TestJSONStopsAtFirstWriteError(t *testing.T) {
	msgs := fixtureMessages(t)
	for _, limit := range []int{0, 10, 200} {
		w := &failingWriter{limit: limit}
		r := NewJSON(w)
		cancelled := false
		for _, m := range msgs {
			if !r.Write(m) {
				cancelled = true
				break
			}
		}
		if err := r.Close(); !errors.Is(err, errWriterFull) || !cancelled {
			t.Errorf("limit %d: cancelled=%v, Close = %v, want %v", limit, cancelled, err, errWriterFull)
		}
		if !w.failed || w.after != 0 {
			t.Errorf("limit %d: failed=%v, %d writes after the failure", limit, w.failed, w.after)
		}
	}
}
