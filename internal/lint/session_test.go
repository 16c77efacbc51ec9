package lint

import (
	"fmt"
	"strings"
	"testing"

	"weblint/internal/corpus"
	"weblint/internal/warn"
)

// renderMsgs renders a message slice canonically — every field that
// reaches any output surface, fix edits included — so two streams are
// equal iff their rendered forms are byte-identical.
func renderMsgs(msgs []warn.Message) string {
	var b strings.Builder
	for _, m := range msgs {
		fmt.Fprintf(&b, "%s|%d|%s|%d|%d|%s", m.ID, m.Category, m.File, m.Line, m.Col, m.Text)
		if m.Fix != nil {
			fmt.Fprintf(&b, "|fix:%s", m.Fix.Label)
			for _, e := range m.Fix.Edits {
				fmt.Fprintf(&b, "|[%d,%d)=%q", e.Start, e.End, e.Text)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// checkEquivalent asserts the session's findings are byte-identical to
// a from-scratch lint of its current text — the sorted report and the
// emission-order stream.
func checkEquivalent(t testing.TB, l *Linter, s *Session, label string) {
	t.Helper()
	got := renderMsgs(s.Messages())
	want := renderMsgs(l.CheckString(s.Name(), s.Text()))
	if got != want {
		t.Fatalf("%s: incremental findings diverge from from-scratch lint\nincremental:\n%s\nfrom-scratch:\n%s", label, got, want)
	}
	var col warn.Collector
	l.CheckStringTo(s.Name(), s.Text(), &col)
	stream := make([]warn.Message, len(s.events))
	for i := range s.events {
		stream[i] = s.events[i].Message
	}
	if gotStream := renderMsgs(stream); gotStream != renderMsgs(col.Messages) {
		t.Fatalf("%s: emission-order stream diverges\nincremental:\n%s\nfrom-scratch:\n%s",
			label, gotStream, renderMsgs(col.Messages))
	}
}

// scriptedEdits derives a deterministic edit sequence from the
// document: inserts (with and without newlines), deletions, span
// replacements, edits at both ends, and a no-op — each applied to the
// result of the previous one.
func scriptedEdits(n int) []Edit {
	at := func(f float64) int {
		p := int(f * float64(n))
		if p > n {
			p = n
		}
		return p
	}
	return []Edit{
		{Start: at(0.5), End: at(0.5), Text: "x"},                             // 1-byte insert mid-document
		{Start: at(0.25), End: at(0.25), Text: "<p>inserted\nline</p>\n"},     // multi-line insert
		{Start: at(0.75), End: at(0.75) + 3, Text: ""},                        // small deletion
		{Start: 0, End: 0, Text: "<!-- leading comment -->\n"},                // insert at top
		{Start: n, End: n, Text: "\n<p>trailing & tail</p>"},                  // append at end (vs original n: clamped)
		{Start: at(0.4), End: at(0.6), Text: "<B>replaced <i>span</b>\n</i>"}, // large replacement
		{Start: at(0.1), End: at(0.1), Text: ""},                              // no-op
		{Start: at(0.9), End: at(0.9), Text: "<img src=\"x.gif\">"},           // finding-introducing insert
	}
}

// sessionDocs is the differential sweep document set: the suite and
// corpus documents the golden-equivalence test pins.
func sessionDocs(t testing.TB) map[string]string {
	return equivDocs(t)
}

// TestSessionDifferential applies scripted edit sequences to every
// suite/corpus document through a Session and asserts after every
// single edit that the incremental findings are byte-identical to a
// from-scratch lint. Small checkpoint spacings force the splice
// machinery to run even on small documents.
func TestSessionDifferential(t *testing.T) {
	l := MustNew(Options{})
	docs := sessionDocs(t)
	for _, spacing := range []int{97, 1024} {
		for name, src := range docs {
			s := newSession(l, name, src, spacing)
			checkEquivalent(t, l, s, fmt.Sprintf("%s spacing=%d initial", name, spacing))
			for i, e := range scriptedEdits(len(src)) {
				s.Apply([]Edit{e})
				checkEquivalent(t, l, s, fmt.Sprintf("%s spacing=%d edit %d", name, spacing, i))
			}
		}
	}
}

// TestSessionPedantic runs a reduced differential sweep under the
// pedantic configuration, which enables every registered warning —
// including the style checks with their own emission sites.
func TestSessionPedantic(t *testing.T) {
	l := MustNew(Options{Pedantic: true})
	for name, src := range sessionDocs(t) {
		if !strings.HasPrefix(name, "suite/") {
			continue
		}
		s := newSession(l, name, src, 64)
		for i, e := range scriptedEdits(len(src)) {
			s.Apply([]Edit{e})
			checkEquivalent(t, l, s, fmt.Sprintf("%s edit %d", name, i))
		}
	}
}

// TestSessionSplices proves the splice path actually fires — a
// regression here would leave every edit silently falling back to a
// full-tail re-lint, correct but defeating the optimisation.
func TestSessionSplices(t *testing.T) {
	l := MustNew(Options{})
	src := corpus.GenerateSized(7, 256<<10, corpus.Uniform(0.05))
	s := NewSession(l, "splice.html", src)
	mid := len(src) / 2
	s.Apply([]Edit{{Start: mid, End: mid, Text: "y"}})
	checkEquivalent(t, l, s, "mid-document insert")
	st := s.Stats()
	if st.Spliced == 0 {
		t.Fatalf("mid-document 1-byte insert did not splice: %+v", st)
	}
	// An edit near the end must not re-lint from offset zero either:
	// rebased checkpoints from the first splice have to keep serving.
	near := len(s.Text()) - 200
	s.Apply([]Edit{{Start: near, End: near, Text: "z"}})
	checkEquivalent(t, l, s, "near-end insert")
	if got := s.Stats().Applies; got != 2 {
		t.Fatalf("Applies = %d, want 2", got)
	}
}

// TestSessionEditClamping feeds out-of-range and inverted spans; the
// session must clamp rather than panic, and stay equivalent.
func TestSessionEditClamping(t *testing.T) {
	l := MustNew(Options{})
	src := "<html><head><title>t</title></head><body><p>hello</p></body></html>\n"
	s := newSession(l, "clamp.html", src, 16)
	for i, e := range []Edit{
		{Start: -5, End: 3, Text: "x"},
		{Start: 1 << 20, End: 1 << 21, Text: "tail"},
		{Start: 10, End: 4, Text: "y"}, // inverted span: treated as insert at 10
	} {
		s.Apply([]Edit{e})
		checkEquivalent(t, l, s, fmt.Sprintf("clamp edit %d", i))
	}
}

// TestApplyEditsClampsLikeSession: ApplyEdits, which the gateway's
// diff intake uses, applies a sequence of edits exactly as Session.Apply
// does, out-of-range and inverted spans included.
func TestApplyEditsClampsLikeSession(t *testing.T) {
	src := "<html><head><title>t</title></head><body><p>hello</p></body></html>\n"
	edits := []Edit{
		{Start: -5, End: 3, Text: "x"},
		{Start: 1 << 20, End: 1 << 21, Text: "tail"},
		{Start: 10, End: 4, Text: "y"},
		{Start: 20, End: -1, Text: "z"},
		{Start: 2, End: 30, Text: ""},
	}
	s := NewSession(MustNew(Options{}), "clamp.html", src)
	s.Apply(edits)
	if got := ApplyEdits([]byte(src), edits); string(got) != s.Text() {
		t.Fatalf("ApplyEdits gives %q, the session %q", got, s.Text())
	}
}

// TestSessionRawTextEdits edits inside and around SCRIPT raw-text
// bodies, where checkpoints are forbidden and re-sync must wait for
// the tokenizer to leave raw mode.
func TestSessionRawTextEdits(t *testing.T) {
	l := MustNew(Options{})
	src := corpus.GenerateRawText(40)
	s := newSession(l, "raw.html", src, 512)
	for i, e := range scriptedEdits(len(src)) {
		s.Apply([]Edit{e})
		checkEquivalent(t, l, s, fmt.Sprintf("raw edit %d", i))
	}
}

// TestSessionDirectiveEdits exercises in-document "weblint:" directive
// comments: the emitter overlay is checkpointed state, and inserting
// or deleting a directive must change downstream findings exactly as a
// from-scratch lint would.
func TestSessionDirectiveEdits(t *testing.T) {
	l := MustNew(Options{})
	var b strings.Builder
	b.WriteString("<html><head><title>t</title>\n")
	b.WriteString("<META NAME=\"description\" CONTENT=\"x\"><META NAME=\"keywords\" CONTENT=\"x\">\n")
	b.WriteString("</head><body>\n")
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&b, "<p><img src=\"%d.gif\"></p>\n", i)
	}
	b.WriteString("</body></html>\n")
	src := b.String()
	s := newSession(l, "directives.html", src, 128)

	insertAt := strings.Index(src, "<p><img src=\"10.gif\">")
	s.Apply([]Edit{{Start: insertAt, End: insertAt, Text: "<!-- weblint: disable img-alt -->\n"}})
	checkEquivalent(t, l, s, "insert disable directive")

	reEnable := strings.Index(s.Text(), "<p><img src=\"20.gif\">")
	s.Apply([]Edit{{Start: reEnable, End: reEnable, Text: "<!-- weblint: enable img-alt -->\n"}})
	checkEquivalent(t, l, s, "insert enable directive")

	// Delete the disable directive again.
	cur := s.Text()
	dIdx := strings.Index(cur, "<!-- weblint: disable img-alt -->\n")
	s.Apply([]Edit{{Start: dIdx, End: dIdx + len("<!-- weblint: disable img-alt -->\n"), Text: ""}})
	checkEquivalent(t, l, s, "delete disable directive")
}

// FuzzIncremental applies fuzzer-chosen edit pairs at fuzzer-chosen
// checkpoint spacings and requires byte-identical equivalence with a
// from-scratch lint after each edit.
func FuzzIncremental(f *testing.F) {
	addSuiteSeeds(f)
	f.Add("<html><head><title>t</title></head><body><p>a & b</p></body></html>\n")
	f.Add("<p ALIGN='a' align=\"b\"><a name=x><h3>x</h3><script>var a=1;</script>")
	l := MustNew(Options{})
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip()
		}
		// Derive deterministic edit parameters and spacing from the
		// input itself, so the fuzzer mutates them along with the text.
		h := 0
		for i := 0; i < len(src); i++ {
			h = h*131 + int(src[i])
			h &= 0x7fffffff
		}
		n := len(src)
		spacing := h%509 + 1
		s := newSession(l, "fuzz.html", src, spacing)
		edits := []Edit{
			{Start: h % (n + 1), End: h % (n + 1), Text: "<"},
			{Start: (h / 7) % (n + 1), End: (h/7)%(n+1) + h%5, Text: src[:min(n, h%17)]},
			{Start: (h / 13) % (n + 1), End: n, Text: "\n<p>"},
			{Start: 0, End: min(n, h%11), Text: "<!--x-->"},
		}
		for i, e := range edits {
			s.Apply([]Edit{e})
			got := renderMsgs(s.Messages())
			want := renderMsgs(l.CheckString("fuzz.html", s.Text()))
			if got != want {
				t.Fatalf("edit %d %+v diverged\nincremental:\n%s\nfrom-scratch:\n%s", i, e, got, want)
			}
		}
	})
}
