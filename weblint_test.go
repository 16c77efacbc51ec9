package weblint

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const section42 = `<HTML>
<HEAD>
<TITLE>example page
</HEAD>
<BODY BGCOLOR="fffff" TEXT=#00ff00>
<H1>My Example</H2>
Click <B><A HREF="a.html>here</B></A>
for more details.
</BODY>
</HTML>
`

// TestPublicAPIQuickstart exercises the package-level convenience API
// the README documents.
func TestPublicAPIQuickstart(t *testing.T) {
	msgs := CheckString("test.html", section42)
	if len(msgs) != 7 {
		t.Fatalf("got %d messages, want 7", len(msgs))
	}
	out := LintStyle.Format(msgs[0])
	if out != "test.html(1): first element was not DOCTYPE specification" {
		t.Errorf("formatted = %q", out)
	}
	if ShortStyle.Format(msgs[0]) != "line 1: first element was not DOCTYPE specification" {
		t.Errorf("short = %q", ShortStyle.Format(msgs[0]))
	}
	if !strings.Contains(TerseStyle.Format(msgs[0]), "doctype-first") {
		t.Errorf("terse = %q", TerseStyle.Format(msgs[0]))
	}
}

// TestPublicAPIIntake: the package-level byte and file checks return
// what CheckString returns for the same document and name.
func TestPublicAPIIntake(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.html")
	if err := os.WriteFile(path, []byte(section42), 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := CheckFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := CheckString(path, section42); len(want) != 7 || !reflect.DeepEqual(fromFile, want) {
		t.Errorf("CheckFile = %v\nwant %v", fromFile, want)
	}
	if got, want := CheckBytes("test.html", []byte(section42)), CheckString("test.html", section42); !reflect.DeepEqual(got, want) {
		t.Errorf("CheckBytes = %v\nwant %v", got, want)
	}
	if _, err := CheckFile(filepath.Join(t.TempDir(), "missing.html")); err == nil {
		t.Error("CheckFile of a missing file did not fail")
	}
}

func TestPublicAPILinter(t *testing.T) {
	l := MustNew(Options{Pedantic: true})
	msgs := l.CheckString("x.html", section42)
	if len(msgs) < 7 {
		t.Errorf("pedantic produced %d messages", len(msgs))
	}
	var sawStyle bool
	for _, m := range msgs {
		if m.Category == Style {
			sawStyle = true
		}
	}
	if !sawStyle {
		t.Error("pedantic run produced no style comments (here-anchor expected)")
	}
}

func TestPublicAPISettings(t *testing.T) {
	s := NewSettings()
	if err := s.Set.Disable("all"); err != nil {
		t.Fatal(err)
	}
	l, err := New(Options{Settings: s})
	if err != nil {
		t.Fatal(err)
	}
	if msgs := l.CheckString("x.html", section42); len(msgs) != 0 {
		t.Errorf("all-disabled run produced %d messages", len(msgs))
	}
}

func TestCategoriesExposed(t *testing.T) {
	if Error == Warning || Warning == Style {
		t.Error("category constants collide")
	}
}

// TestPublicAPIStreaming exercises the streaming pipeline through the
// public surface: Linter.CheckStringTo into a Summary-counting
// renderer sink, severity policy, and the formatter-sink hook.
func TestPublicAPIStreaming(t *testing.T) {
	l := MustNew(Options{})
	var out strings.Builder
	r, err := NewRenderer("json", &out)
	if err != nil {
		t.Fatal(err)
	}
	var sum Summary
	l.CheckStringTo("t.html", "<HTML><BODY><IMG SRC=x.gif></BODY></HTML>", sum.Sink(r))
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if sum.Total() == 0 || out.Len() == 0 {
		t.Fatalf("streaming check produced nothing (summary %+v)", sum)
	}
	if sum.Failures(FailOnNever) != 0 {
		t.Error("FailOnNever reported failures")
	}
	if sum.Failures(FailOnStyle) != sum.Total() {
		t.Error("FailOnStyle did not count every finding")
	}
	if f, ok := ParseFailOn("warning"); !ok || f != FailOnWarning {
		t.Error("ParseFailOn(warning) broken")
	}

	var custom strings.Builder
	fr := NewFormatterSink(FormatterFunc(func(m Message) string {
		return "X:" + m.ID
	}), &custom)
	l.CheckStringTo("t.html", "<HTML><BODY><IMG SRC=x.gif></BODY></HTML>", fr)
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(custom.String(), "X:img-alt") {
		t.Errorf("formatter sink output = %q", custom.String())
	}
}

// TestBatchEngineRunTo: the public batch engine streams messages in
// input order into a sink.
func TestBatchEngineRunTo(t *testing.T) {
	eng := NewBatchEngine(nil)
	jobs := []BatchJob{
		{Name: "a.html", Src: []byte("<HTML><BODY><IMG SRC=x.gif></BODY></HTML>")},
		{Name: "b.html", Src: []byte("<HTML><BODY><P>t</P></BODY></HTML>")},
	}
	var c Collector
	if err := eng.RunTo(jobs, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Messages) == 0 {
		t.Fatal("no messages streamed")
	}
	lastA := -1
	firstB := len(c.Messages)
	for i, m := range c.Messages {
		if m.File == "a.html" {
			lastA = i
		} else if i < firstB {
			firstB = i
		}
	}
	if lastA > firstB {
		t.Error("job messages interleaved out of input order")
	}
}
