package baseline

import (
	"path/filepath"
	"strings"
	"testing"

	"weblint/internal/lint"
	"weblint/internal/warn"
)

// record lints src and returns the recorded baseline.
func record(t *testing.T, name, src string) *File {
	t.Helper()
	l := lint.MustNew(lint.Options{})
	rec := NewRecorder(nil)
	rec.Document(name, src)
	l.CheckStringTo(name, src, rec)
	return rec.File()
}

// diff lints src against base, returning the new findings.
func diff(t *testing.T, base *File, name, src string) ([]warn.Message, *Filter) {
	t.Helper()
	l := lint.MustNew(lint.Options{})
	var col warn.Collector
	f := NewFilter(base, &col)
	f.Document(name, src)
	l.CheckStringTo(name, src, f)
	return col.Messages, f
}

const doc = `<HTML>
<HEAD><TITLE>t</TITLE></HEAD>
<BODY>
<IMG SRC="a.gif">
<P>text
</BODY>
</HTML>
`

func TestUnchangedRunIsClean(t *testing.T) {
	base := record(t, "d.html", doc)
	if base.Total() == 0 {
		t.Fatal("document should have findings to baseline")
	}
	news, f := diff(t, base, "d.html", doc)
	if len(news) != 0 {
		t.Fatalf("unchanged document produced %d new findings: %v", len(news), news)
	}
	if f.New != 0 || f.Matched != base.Total() {
		t.Errorf("New=%d Matched=%d, want 0 and %d", f.New, f.Matched, base.Total())
	}
}

func TestLineDriftTolerated(t *testing.T) {
	base := record(t, "d.html", doc)
	// Insert clean paragraphs above the findings: every line number
	// shifts, no fingerprint should.
	drifted := strings.Replace(doc, "<BODY>", "<BODY>\n<P>new intro\n<P>more intro", 1)
	news, _ := diff(t, base, "d.html", drifted)
	if len(news) != 0 {
		t.Fatalf("line drift produced %d new findings: %v", len(news), news)
	}
}

func TestNewFindingDetected(t *testing.T) {
	base := record(t, "d.html", doc)
	changed := strings.Replace(doc, "<P>text", "<P>text\n<IMG SRC=\"b.gif\">", 1)
	news, _ := diff(t, base, "d.html", changed)
	if len(news) == 0 {
		t.Fatal("injected finding not detected")
	}
	for _, m := range news {
		if m.ID != "img-alt" && m.ID != "img-size" {
			t.Errorf("unexpected new finding %s (%s)", m.ID, m.Text)
		}
	}
}

func TestMultiplicityCounted(t *testing.T) {
	// Two identical findings on identical lines share a fingerprint;
	// the baseline's count must absorb exactly two, not infinitely
	// many.
	two := strings.Replace(doc, "<P>text", "<IMG SRC=\"a.gif\">\n<P>text", 1)
	base := record(t, "d.html", two)
	three := strings.Replace(two, "<P>text", "<IMG SRC=\"a.gif\">\n<P>text", 1)
	news, _ := diff(t, base, "d.html", three)
	if len(news) == 0 {
		t.Fatal("third identical finding not detected as new")
	}
}

func TestFingerprintIgnoresSurroundingWhitespace(t *testing.T) {
	base := record(t, "d.html", doc)
	indented := strings.Replace(doc, `<IMG SRC="a.gif">`, `    <IMG SRC="a.gif">`, 1)
	news, _ := diff(t, base, "d.html", indented)
	if len(news) != 0 {
		t.Fatalf("re-indentation produced %d new findings: %v", len(news), news)
	}
}

func TestFileDiscriminates(t *testing.T) {
	base := record(t, "a.html", doc)
	news, _ := diff(t, base, "b.html", doc)
	if len(news) == 0 {
		t.Fatal("same findings in a different file should be new")
	}
}

func TestRoundTripFile(t *testing.T) {
	base := record(t, "d.html", doc)
	path := filepath.Join(t.TempDir(), "weblint-baseline.json")
	if err := base.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Total() != base.Total() || len(loaded.Findings) != len(base.Findings) {
		t.Fatalf("round trip lost findings: %d/%d vs %d/%d",
			loaded.Total(), len(loaded.Findings), base.Total(), len(base.Findings))
	}
	news, _ := diff(t, loaded, "d.html", doc)
	if len(news) != 0 {
		t.Fatalf("round-tripped baseline produced %d new findings", len(news))
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte("{not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Parse([]byte(`{"version": 99, "findings": {}}`)); err == nil {
		t.Error("future version accepted")
	}
}

func TestMissingSourceStillFingerprints(t *testing.T) {
	// Without source text the context is empty: rule and file still
	// discriminate, and an unchanged run stays clean.
	l := lint.MustNew(lint.Options{})
	rec := NewRecorder(nil)
	l.CheckStringTo("gone.html", doc, rec)

	var col warn.Collector
	f := NewFilter(rec.File(), &col)
	l.CheckStringTo("gone.html", doc, f)
	if len(col.Messages) != 0 {
		t.Fatalf("context-less diff produced %d new findings", len(col.Messages))
	}
}

// TestDocumentBindsFindings: a finding is fingerprinted against the
// document bound before it, not against whatever text its name once
// had, and a finding naming any other document gets the empty context.
func TestDocumentBindsFindings(t *testing.T) {
	img := warn.Message{ID: "img-alt", File: "p.html", Line: 2, Col: 1}
	var fp fingerprinter
	fp.Document("p.html", "<P>\n<IMG SRC=\"a.gif\">\n")
	first := fp.of(img)
	fp.Document("p.html", "<P>\n<IMG SRC=\"b.gif\">\n")
	if fp.of(img) == first {
		t.Error("rebinding p.html to other text kept the old context")
	}
	fp.Document("q.html", "<P>\n<IMG SRC=\"b.gif\">\n")
	if got, want := fp.of(img), Fingerprint("img-alt", "p.html", ""); got != want {
		t.Errorf("finding outside the bound document = %s, want the empty-context %s", got, want)
	}
}

func TestSuppressionForwarding(t *testing.T) {
	var sum warn.Summary
	counting := sum.Sink(nil)
	f := NewFilter(New(), counting)
	r := NewRecorder(f)
	(&warn.Recorder{SuppressedIDs: []string{"img-alt", "img-alt"}}).Replay(r)
	if sum.Suppressed["img-alt"] != 2 {
		t.Fatalf("suppressions not forwarded through recorder+filter: %v", sum.Suppressed)
	}
}

func TestReflowedTagKeepsFingerprint(t *testing.T) {
	// Context hashes key on the enclosing tag's collapsed text, so a
	// formatter wrapping a long tag across lines must not resurrect
	// its baselined findings — even though every affected line's text
	// changes.
	one := strings.Replace(doc, `<IMG SRC="a.gif">`,
		`<IMG SRC="a.gif" BORDER=0 ISMAP>`, 1)
	base := record(t, "d.html", one)
	reflowed := strings.Replace(one, `<IMG SRC="a.gif" BORDER=0 ISMAP>`,
		"<IMG SRC=\"a.gif\"\n     BORDER=0\n     ISMAP>", 1)
	news, _ := diff(t, base, "d.html", reflowed)
	if len(news) != 0 {
		t.Fatalf("reflowing the tag produced %d new findings: %v", len(news), news)
	}
}

func TestContextIsEnclosingTag(t *testing.T) {
	src := "<P>\n<IMG\n SRC=\"a.gif\">\ntext here\n"
	var fp fingerprinter
	fp.Document("d.html", src)
	// Positions on any line of a multi-line tag resolve to the same
	// collapsed tag text.
	for _, line := range []int{2, 3} {
		got := fp.context(warn.Message{File: "d.html", Line: line, Col: 1})
		if got != `<IMG SRC="a.gif">` {
			t.Errorf("line %d context = %q, want collapsed tag", line, got)
		}
	}
	// Plain-text positions fall back to the line text.
	if got := fp.context(warn.Message{File: "d.html", Line: 4, Col: 1}); got != "text here" {
		t.Errorf("text context = %q, want line text", got)
	}
}

// TestLoneCRKeepsFingerprint: message lines count only LF, so a lone
// CR before a finding must not move its context onto an earlier tag,
// where editing that tag would report the recorded finding as new.
func TestLoneCRKeepsFingerprint(t *testing.T) {
	src := "<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY>\r<P>one</P>\n<IMG SRC=\"x.gif\">\n</BODY></HTML>\n"
	base := record(t, "d.html", src)
	edited := strings.Replace(src, "<P>", "<P ID=a>", 1)
	if news, _ := diff(t, base, "d.html", edited); len(news) != 0 {
		t.Fatalf("editing the tag before a lone CR made %d recorded findings new: %v", len(news), news)
	}
}

func TestCollapseSpace(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"  a  ", "a"},
		{"a b", "a b"},
		{"a  b", "a b"},
		{"a\t\r\n b", "a b"},
		{"<IMG\n  SRC=x\n  ALT=\"y\">", `<IMG SRC=x ALT="y">`},
	}
	for _, c := range cases {
		if got := collapseSpace(c.in); got != c.want {
			t.Errorf("collapseSpace(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFilterUsedPrunesPaidDownFindings(t *testing.T) {
	base := record(t, "d.html", doc)
	// Fix the IMG findings entirely: their fingerprints go unconsumed.
	fixed := strings.Replace(doc, `<IMG SRC="a.gif">`,
		`<IMG SRC="a.gif" ALT="a" WIDTH=1 HEIGHT=1>`, 1)
	news, f := diff(t, base, "d.html", fixed)
	if len(news) != 0 {
		t.Fatalf("fixing findings produced %d new ones: %v", len(news), news)
	}
	used := f.Used()
	if used.Total() >= base.Total() {
		t.Fatalf("Used() total = %d, want < %d (paid-down entries pruned)",
			used.Total(), base.Total())
	}
	if used.Total() != f.Matched {
		t.Errorf("Used() total = %d, want Matched = %d", used.Total(), f.Matched)
	}
	// The pruned baseline still covers everything that remains.
	news, _ = diff(t, used, "d.html", fixed)
	if len(news) != 0 {
		t.Fatalf("pruned baseline produced %d new findings: %v", len(news), news)
	}
}
