package lint

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"weblint/internal/config"
	"weblint/internal/corpus"
	"weblint/internal/fixit"
	"weblint/internal/testsuite"
	"weblint/internal/warn"
)

// assertFixIdempotent enforces the fix-it contract on one document:
// applying the fixes and re-linting leaves zero fixable findings and
// introduces no new finding (per-ID counts never grow), and a second
// apply pass is a byte-identical no-op.
func assertFixIdempotent(t *testing.T, l *Linter, name, src string) {
	t.Helper()
	msgs := l.CheckString(name, src)
	fixed, rep := fixit.Apply(src, msgs)
	if rep.Skipped > 0 {
		// The checker's fix builders are engineered not to conflict
		// with each other; a skip here means two of them fought.
		for _, o := range rep.Outcomes {
			if !o.Applied {
				t.Errorf("%s: fix for %s (line %d, %s) skipped: %s", name, o.ID, o.Line, o.Label, o.Reason)
			}
		}
	}

	relint := l.CheckString(name, fixed)
	for _, m := range relint {
		if m.Fix != nil {
			t.Errorf("%s: fixable finding survives apply: %s line %d: %s (fix %q)",
				name, m.ID, m.Line, m.Text, m.Fix.Label)
		}
	}

	before := countByID(msgs)
	after := countByID(relint)
	for id, n := range after {
		if n > before[id] {
			t.Errorf("%s: apply introduced new %s findings: %d -> %d", name, id, before[id], n)
		}
	}

	fixed2, rep2 := fixit.Apply(fixed, relint)
	if fixed2 != fixed {
		t.Errorf("%s: second apply is not a byte-identical no-op", name)
	}
	if rep2.Applied != 0 {
		t.Errorf("%s: second apply applied %d fixes", name, rep2.Applied)
	}

	if t.Failed() {
		t.Logf("%s: original:\n%s", name, src)
		t.Logf("%s: fixed:\n%s", name, fixed)
		for _, m := range relint {
			t.Logf("  relint: %s [%s]", warn.Short{}.Format(m), m.ID)
		}
	}
}

func countByID(msgs []warn.Message) map[string]int {
	m := map[string]int{}
	for _, msg := range msgs {
		m[msg.ID]++
	}
	return m
}

// TestFixIdempotencySuite: the suite-wide headline property, run over
// every sample with the sample's own configuration.
func TestFixIdempotencySuite(t *testing.T) {
	cases, err := testsuite.Load(os.DirFS("testdata"), "suite")
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) < 25 {
		t.Fatalf("only %d samples found; suite incomplete", len(cases))
	}
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			s := config.NewSettings()
			s.HTMLVersion = c.HTMLVersion
			s.Extensions = c.Extensions
			l, err := New(Options{Settings: s, Pedantic: c.Pedantic})
			if err != nil {
				t.Fatal(err)
			}
			assertFixIdempotent(t, l, c.Name, c.Source)
		})
	}
}

// TestFixIdempotencyCorpus: the same property over generated documents
// at several error rates and configurations, including the case-style
// checks whose fixes rewrite names in place.
func TestFixIdempotencyCorpus(t *testing.T) {
	configs := []struct {
		name  string
		build func(t *testing.T) *Linter
	}{
		{"default", func(t *testing.T) *Linter {
			return MustNew(Options{})
		}},
		{"pedantic", func(t *testing.T) *Linter {
			return MustNew(Options{Pedantic: true})
		}},
		{"lower-case-style", func(t *testing.T) *Linter {
			return caseStyleLinter(t, "lower")
		}},
		{"upper-case-style", func(t *testing.T) *Linter {
			return caseStyleLinter(t, "upper")
		}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			l := cfg.build(t)
			for seed := int64(0); seed < 8; seed++ {
				for _, rate := range []float64{0, 0.2, 0.6} {
					name := fmt.Sprintf("corpus-seed%d-rate%v.html", seed, rate)
					src := corpus.Generate(corpus.Config{
						Seed:     seed,
						Sections: 3 + int(seed%3),
						Errors:   corpus.Uniform(rate),
					})
					assertFixIdempotent(t, l, name, src)
				}
			}
		})
	}
}

// caseStyleLinter builds a linter with the tag/attribute case style
// checks configured AND enabled (they are registered Default false,
// so setting the knob alone exercises nothing).
func caseStyleLinter(t *testing.T, want string) *Linter {
	t.Helper()
	s := config.NewSettings()
	s.TagCase = want
	s.AttrCase = want
	for _, id := range []string{"tag-case", "attribute-case"} {
		if err := s.Set.Enable(id); err != nil {
			t.Fatal(err)
		}
	}
	return MustNew(Options{Settings: s})
}

// TestFixIdempotencyTricky pins documents that once broke the
// property — mostly fuzz-found tokenizer-interaction cases — plus the
// XHTML-spacing shape where an attribute insertion must coexist with
// the trailing-slash deletion at its boundary.
func TestFixIdempotencyTricky(t *testing.T) {
	docs := map[string]string{
		"xhtml-spaced-slash":   `<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><IMG SRC="x.gif" /></BODY></HTML>`,
		"xhtml-double-slash":   `<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><IMG SRC="x.gif"//></BODY></HTML>`,
		"eof-unterminated-tag": "000000000000000000<B>0<C0",
		"trailing-slash-run":   "<A000000000000000000000//>",
		"quote-garbled-attrs":  "<B\" > \">",
		"stray-equals":         "<A000000 0 0=0 =>",
		"odd-quotes-then-del":  "<A\"0000\n>\n></TITLE\n>\n\">0",
		"quoted-garbage-value": "<A\"=> &0\">",
		"unterminated-quote":   "<FORM\"=\">",
		// A repeat deleted after a stray slash must take the slash
		// along, or the slash ends the tag and gets a fix of its own.
		"slash-then-repeat":        `<A ALIGN=""/ ALIGN>`,
		"slash-then-repeat-xhtml":  `<A ALIGN=""/ ALIGN //>`,
		"repeated-stray-slash":     `<A ALIGN / / ALIGN>`,
		"slash-then-repeat-insert": `<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><IMG SRC="a" / SRC></BODY></HTML>`,
		"slash-after-bare-value":   `<A NAME=b/ / NAME>`,
		"strays-around-repeats":    `<A NAME / NAME / NAME>`,
		"slash-ended-name":         `<A NAME X/ NAME>`,
		// An empty value before the trailing slash: the slash fix and
		// the inserted quotes and attributes meet at the slash.
		"empty-value-then-slash":   `<A NAME=  />`,
		"empty-value-slash-insert": `<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><IMG SRC= /></BODY></HTML>`,
		"repeat-empty-value-slash": `<A NAME=""/ NAME= />`,
		// An unquoted value reaching into the trailing slashes keeps
		// them: the slash fix removes only what follows the value,
		// and the value's quoting fix (none in a garbled tag) keeps
		// the rest from ending the tag.
		"slash-value-then-slash":    `<A NAME=//>`,
		"spaced-slash-value":        `<A NAME= // />`,
		"slash-value-insert":        `<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><IMG SRC=/// /></BODY></HTML>`,
		"repeat-slash-value-slash":  `<A NAME=1 / NAME=//>`,
		"garbled-lone-slash-value":  `<A B""C NAME=//>`,
		"garbled-slash-value":       `<A B""C NAME= //>`,
		"slashes-ending-bare-value": `<A NAME=a//>`,
		"slash-ended-bare-value":    `<A NAME=a/ />`,
		"slashes-ending-bare-name":  `<A X//>`,
	}
	l := MustNew(Options{})
	for name, src := range docs {
		t.Run(name, func(t *testing.T) {
			assertFixIdempotent(t, l, name+".html", src)
		})
	}
}

// TestFixXHTMLSpacedSlash: the insertion lands before the whole
// slash/space run, so both fixes apply and the rewrite is complete.
func TestFixXHTMLSpacedSlash(t *testing.T) {
	l := MustNew(Options{})
	src := `<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><IMG SRC="x.gif" /></BODY></HTML>`
	fixed, rep := fixit.Apply(src, l.CheckString("t.html", src))
	if rep.Skipped != 0 {
		t.Fatalf("skipped fixes: %+v", rep.Outcomes)
	}
	if !strings.Contains(fixed, `<IMG SRC="x.gif" ALT="">`) {
		t.Errorf("fixed = %q", fixed)
	}
}

// TestFixUnicodeAttrCaseLengthPreserved pins the review-found case:
// an attribute name containing U+212A (Kelvin sign) under `set
// attr-case lower`. The Unicode fold would shrink it ("K" -> "k",
// 3 bytes -> 1), and a length-changing edit after an odd-quotes
// recovery re-tokenizes the document differently; the ASCII fold the
// fix uses is length-preserving, so the idempotency property holds.
func TestFixUnicodeAttrCaseLengthPreserved(t *testing.T) {
	l := caseStyleLinter(t, "lower")
	// Sweep the filler length across the tokenizer's 300-byte
	// odd-quote recovery budget: a 2-byte shrink anywhere in the range
	// would flip the recovery decision on a re-parse.
	for n := 285; n <= 305; n++ {
		doc := "<p 'x>" + strings.Repeat("0", n) + "<p AK=1>'q>tail"
		assertFixIdempotent(t, l, fmt.Sprintf("kelvin-%d.html", n), doc)
	}
}
