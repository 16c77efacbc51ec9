package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"weblint/internal/corpus"
	"weblint/internal/lint"
	"weblint/internal/render"
	"weblint/internal/warn"
)

// warningsOnly produces only warning-category findings (doctype-first,
// require-meta), no errors.
const warningsOnly = `<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><P>x</P></BODY></HTML>
`

// TestFormatJSON: -format json emits one valid JSON object per finding
// with structured id/category/file/line fields, then a trailing
// summary line with the per-category counts.
func TestFormatJSON(t *testing.T) {
	path := writeTemp(t, "test.html", section42)
	code, out, stderr := runCLI(t, "", "-norc", "-format", "json", path)
	if code != 1 {
		t.Fatalf("exit = %d, stderr=%q", code, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) < 5 {
		t.Fatalf("only %d JSON lines", len(lines))
	}

	// The last line is the run summary.
	var tail struct {
		Summary *struct {
			Errors     int            `json:"errors"`
			Warnings   int            `json:"warnings"`
			Style      int            `json:"style"`
			Suppressed map[string]int `json:"suppressed"`
		} `json:"summary"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tail); err != nil || tail.Summary == nil {
		t.Fatalf("last line is not a summary: %q (%v)", lines[len(lines)-1], err)
	}
	if got := tail.Summary.Errors + tail.Summary.Warnings + tail.Summary.Style; got != len(lines)-1 {
		t.Errorf("summary counts %d findings, stream has %d", got, len(lines)-1)
	}

	for _, line := range lines[:len(lines)-1] {
		var m struct {
			ID       string `json:"id"`
			Category string `json:"category"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Text     string `json:"text"`
		}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %q is not valid JSON: %v", line, err)
		}
		if m.ID == "" || m.File != path || m.Line < 1 || m.Text == "" {
			t.Errorf("degenerate JSON message: %+v", m)
		}
		switch m.Category {
		case "error", "warning", "style":
		default:
			t.Errorf("unknown category %q", m.Category)
		}
	}
}

// TestFormatSARIF: -format sarif emits a parseable SARIF 2.1.0 log.
func TestFormatSARIF(t *testing.T) {
	path := writeTemp(t, "test.html", section42)
	code, out, stderr := runCLI(t, "", "-norc", "-format", "sarif", path)
	if code != 1 {
		t.Fatalf("exit = %d, stderr=%q", code, stderr)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Results []struct {
				RuleID string `json:"ruleId"`
				Level  string `json:"level"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 || len(log.Runs[0].Results) == 0 {
		t.Fatalf("degenerate SARIF log: %+v", log)
	}
}

// TestFormatUnknown: a bad -format is a usage error, exit 2.
func TestFormatUnknown(t *testing.T) {
	path := writeTemp(t, "test.html", section42)
	code, _, stderr := runCLI(t, "", "-norc", "-format", "yaml", path)
	if code != 2 || !strings.Contains(stderr, "yaml") {
		t.Errorf("code=%d stderr=%q", code, stderr)
	}
}

// TestMachineFormatsStableAcrossJobs: json and sarif output is
// byte-identical between -j 1 and -j 4 runs over the same file list.
func TestMachineFormatsStableAcrossJobs(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for i := 0; i < 9; i++ {
		p := filepath.Join(dir, fmt.Sprintf("p%02d.html", i))
		src := section42
		if i%3 == 0 {
			src = warningsOnly
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	for _, format := range []string{"json", "sarif"} {
		_, want, _ := runCLI(t, "", append([]string{"-norc", "-format", format, "-j", "1"}, paths...)...)
		if want == "" {
			t.Fatalf("%s: no output", format)
		}
		code, got, stderr := runCLI(t, "", append([]string{"-norc", "-format", format, "-j", "4"}, paths...)...)
		if code != 1 {
			t.Errorf("%s -j 4: code=%d stderr=%q", format, code, stderr)
		}
		if got != want {
			t.Errorf("%s output differs between -j 1 and -j 4", format)
		}
	}
}

// TestFailOnThresholds: exit codes follow the severity policy.
func TestFailOnThresholds(t *testing.T) {
	warnPath := writeTemp(t, "warn.html", warningsOnly)
	errPath := writeTemp(t, "err.html", section42)

	cases := []struct {
		path   string
		failOn string
		want   int
	}{
		{warnPath, "", 1},        // default: any finding fails
		{warnPath, "any", 1},     //
		{warnPath, "warning", 1}, // warnings reach the warning threshold
		{warnPath, "error", 0},   // no errors in the document
		{warnPath, "never", 0},   //
		{errPath, "error", 1},    // errors always reach "error"
		{errPath, "never", 0},    // never fails on findings
	}
	for _, tc := range cases {
		args := []string{"-norc"}
		if tc.failOn != "" {
			args = append(args, "-fail-on", tc.failOn)
		}
		code, out, stderr := runCLI(t, "", append(args, tc.path)...)
		if code != tc.want {
			t.Errorf("%s -fail-on %q: code=%d, want %d (stderr=%q)", filepath.Base(tc.path), tc.failOn, code, tc.want, stderr)
		}
		if out == "" {
			t.Errorf("%s -fail-on %q: findings not reported", filepath.Base(tc.path), tc.failOn)
		}
	}

	if code, _, stderr := runCLI(t, "", "-fail-on", "fatal", "-norc", warnPath); code != 2 || !strings.Contains(stderr, "fatal") {
		t.Errorf("bad threshold: code=%d stderr=%q", code, stderr)
	}
}

// TestFailOnFromConfig: "set fail-on" in the rc file drives the exit
// code, and the -fail-on flag overrides it.
func TestFailOnFromConfig(t *testing.T) {
	rc := writeTemp(t, "rc", "set fail-on error\n")
	page := writeTemp(t, "warn.html", warningsOnly)
	code, _, stderr := runCLI(t, "", "-f", rc, page)
	if code != 0 {
		t.Errorf("rc fail-on ignored: code=%d stderr=%q", code, stderr)
	}
	code, _, _ = runCLI(t, "", "-f", rc, "-fail-on", "warning", page)
	if code != 1 {
		t.Errorf("flag did not override rc: code=%d", code)
	}
}

// TestOperationalErrorBeatsFindings: an unreadable file mid-list exits
// 2 even though the first file produced findings, and even under
// -fail-on never — operational failures are never conflated with
// findings.
func TestOperationalErrorBeatsFindings(t *testing.T) {
	good := writeTemp(t, "good.html", section42)
	for _, extra := range [][]string{nil, {"-fail-on", "never"}} {
		args := append([]string{"-norc", "-s"}, extra...)
		code, out, stderr := runCLI(t, "", append(args, good, "/nonexistent/gone.html")...)
		if code != 2 {
			t.Errorf("args %v: code=%d, want 2 (stderr=%q)", extra, code, stderr)
		}
		if !strings.Contains(out, "DOCTYPE") {
			t.Errorf("args %v: first file's findings not reported before the error", extra)
		}
		if stderr == "" {
			t.Errorf("args %v: operational error not reported", extra)
		}
	}
}

// TestBatchErrorExitsTwoWithFindings: the -j engine path reports exit
// 2 on a mid-batch failure even when earlier documents had findings
// and -fail-on never would otherwise exit 0.
func TestBatchErrorExitsTwoWithFindings(t *testing.T) {
	var served atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		if strings.HasPrefix(r.URL.Path, "/bad") {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprint(w, section42)
	}))
	defer srv.Close()

	args := []string{"-u", "-norc", "-fail-on", "never", "-j", "2",
		srv.URL + "/ok", srv.URL + "/bad", srv.URL + "/after"}
	code, out, stderr := runCLI(t, "", args...)
	if code != 2 {
		t.Errorf("code=%d, want 2 (stderr=%q)", code, stderr)
	}
	if !strings.Contains(stderr, "/bad") {
		t.Errorf("stderr does not name the failing URL: %q", stderr)
	}
	if !strings.Contains(out, "DOCTYPE") {
		t.Errorf("findings before the failure missing: %q", out)
	}
}

// TestSARIFPartialOnError: a mid-run operational error still closes
// the SARIF document, so the findings seen so far parse.
func TestSARIFPartialOnError(t *testing.T) {
	good := writeTemp(t, "good.html", section42)
	code, out, _ := runCLI(t, "", "-norc", "-format", "sarif", good, "/nonexistent/gone.html")
	if code != 2 {
		t.Fatalf("code=%d, want 2", code)
	}
	var log map[string]any
	if err := json.Unmarshal([]byte(out), &log); err != nil {
		t.Errorf("partial SARIF log does not parse: %v", err)
	}
}

// TestFormatFlagPrecedence: -format beats -s/-t, which beat the rc
// file's output-style.
func TestFormatFlagPrecedence(t *testing.T) {
	rc := writeTemp(t, "rc", "set output-style verbose\n")
	page := writeTemp(t, "t.html", section42)
	_, out, _ := runCLI(t, "", "-f", rc, "-t", "-format", "short", page)
	if !strings.HasPrefix(out, "line 1: ") {
		t.Errorf("-format did not win: %q", out)
	}
	_, out, _ = runCLI(t, "", "-f", rc, "-t", page)
	if !strings.Contains(out, ":1:doctype-first") {
		t.Errorf("-t did not beat output-style: %q", out)
	}
	_, out, _ = runCLI(t, "", "-f", rc, page)
	if !strings.Contains(out, "[doctype-first, warning]") {
		t.Errorf("rc output-style verbose ignored: %q", out)
	}
}

// TestSuppressionStats: disabled rules are counted per ID and
// surfaced by the verbose footer and the JSON summary line, on both
// the sequential and the -j engine path.
func TestSuppressionStats(t *testing.T) {
	const doc = `<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><IMG SRC="a.gif"><IMG SRC="b.gif"></BODY></HTML>
`
	path := writeTemp(t, "imgs.html", doc)

	// Default-disabled rules (img-size, require-meta) count too: the
	// footer reports every emission a disabled rule dropped.
	_, out, _ := runCLI(t, "", "-norc", "-d", "img-alt", "-v", path)
	if !strings.Contains(out, "suppressed: 6 emission(s) from disabled rules (img-alt x2, img-size x2, require-meta x2)") {
		t.Errorf("verbose footer missing suppression stats:\n%s", out)
	}

	// Without -d img-alt those findings are delivered, not counted.
	_, out, _ = runCLI(t, "", "-norc", "-v", path)
	if strings.Contains(out, "img-alt x") {
		t.Errorf("delivered rule counted as suppressed:\n%s", out)
	}
	if !strings.Contains(out, "suppressed: 4 emission(s)") {
		t.Errorf("default-disabled rules not counted:\n%s", out)
	}

	check := func(out string, wantAlt int) {
		t.Helper()
		lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
		var tail struct {
			Summary struct {
				Suppressed map[string]int `json:"suppressed"`
			} `json:"summary"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tail); err != nil {
			t.Fatalf("summary line: %v", err)
		}
		if got := tail.Summary.Suppressed["img-alt"]; got != wantAlt {
			t.Errorf("json summary img-alt = %d, want %d (%v)", got, wantAlt, tail.Summary.Suppressed)
		}
	}
	_, out, _ = runCLI(t, "", "-norc", "-d", "img-alt", "-format", "json", path)
	check(out, 2)

	// The -j batch path forwards the same stats through the engine.
	path2 := writeTemp(t, "imgs2.html", doc)
	_, out, _ = runCLI(t, "", "-norc", "-d", "img-alt", "-format", "json", "-j", "4", path, path2)
	check(out, 4)

	// The -R sitewalk path forwards them too.
	dir := t.TempDir()
	for _, name := range []string{"index.html", "a.html"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, out, _ = runCLI(t, "", "-norc", "-R", "-d", "img-alt", "-format", "json", dir)
	check(out, 4)
}

// writeCounter is a stdout that counts the writes it receives.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestStdoutBuffered: the renderer writes to stdout through a 64 KiB
// buffer, so a document with thousands of findings reaches stdout in a
// handful of writes rather than one per finding, and every byte still
// arrives before run returns.
func TestStdoutBuffered(t *testing.T) {
	src := corpus.GenerateSized(7, 512<<10, corpus.Uniform(0.25))
	path := writeTemp(t, "dense.html", src)
	var rec warn.Recorder
	lint.MustNew(lint.Options{}).CheckStringTo(path, src, &rec)
	warn.SortByLine(rec.Messages)
	if len(rec.Messages) < 1000 {
		t.Fatalf("only %d findings; the test needs thousands", len(rec.Messages))
	}
	for _, style := range []string{"lint", "json", "sarif"} {
		var want bytes.Buffer
		r, err := render.New(style, &want)
		if err != nil {
			t.Fatal(err)
		}
		rec.Replay(r)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}

		var stdout writeCounter
		var stderr bytes.Buffer
		if code := run([]string{"-norc", "-format", style, path}, strings.NewReader(""), &stdout, &stderr); code != 1 {
			t.Fatalf("%s: exit %d, stderr %q", style, code, stderr.String())
		}
		if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
			t.Errorf("%s: stdout differs from the renderer's output (%d bytes, want %d)", style, stdout.Len(), want.Len())
		}
		if limit := stdout.Len()/(64<<10) + 2; stdout.writes > limit {
			t.Errorf("%s: %d writes for %d findings (%d bytes), want at most %d",
				style, stdout.writes, len(rec.Messages), stdout.Len(), limit)
		}
	}
}
