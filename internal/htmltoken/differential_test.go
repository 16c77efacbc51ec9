//go:build tokendiff

package htmltoken

import (
	"os"
	"path/filepath"
	"testing"

	"weblint/internal/corpus"
)

// The differential oracle: the table-driven tokenizer and the
// preserved per-byte ReferenceTokenizer must produce byte-identical
// token streams on every input. These tests run only under the
// tokendiff build tag (go test -tags tokendiff ./internal/htmltoken/).

// assertStreamsEqual compares the full token streams of both
// implementations over src.
func assertStreamsEqual(t *testing.T, src string) {
	t.Helper()
	got := Tokenize(src)
	want := ReferenceTokenize(src)
	if len(got) != len(want) {
		t.Fatalf("token counts differ: new=%d reference=%d (src %q...)",
			len(got), len(want), clip(src, 80))
	}
	for i := range want {
		assertTokensEqual(t, i, got[i], want[i])
	}
}

func clip(s string, n int) string {
	if len(s) > n {
		return s[:n]
	}
	return s
}

// TestDifferentialSuite runs the oracle over every lint suite sample.
func TestDifferentialSuite(t *testing.T) {
	dir := filepath.Join("..", "lint", "testdata", "suite")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("suite testdata: %v", err)
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".html" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(e.Name(), func(t *testing.T) { assertStreamsEqual(t, string(data)) })
		n++
	}
	if n < 25 {
		t.Fatalf("only %d suite samples", n)
	}
}

// TestDifferentialCorpus runs the oracle over synthetic documents,
// clean and with every error class injected, plus the raw-text-heavy
// generator.
func TestDifferentialCorpus(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		assertStreamsEqual(t, corpus.GenerateSized(seed, 64<<10, corpus.ErrorRates{}))
		assertStreamsEqual(t, corpus.GenerateSized(seed+100, 64<<10, corpus.Uniform(0.2)))
	}
	assertStreamsEqual(t, corpus.GenerateRawText(64))
}

// TestDifferentialEdgeCases runs the oracle over hand-picked
// tokenizer corners: quote recovery, raw-text EOF, empty raw bodies,
// false close-tag prefixes, declarations, stray markup.
func TestDifferentialEdgeCases(t *testing.T) {
	cases := []string{
		"",
		"x",
		"<",
		"<>",
		"< p>",
		"a < b > c",
		"<p>text</p>",
		"<a href=\"x\">y</a>",
		"<a href='x>y</a <b>",
		"<a href=\"" + string(make([]byte, 400)) + "\">",
		"<a b='1' c=\"2\" d=3 e f = 4>",
		"<a =x b==c>",
		"<a b=\"unterminated",
		"<a b='line\nline\nline\nline\nline'>ok</a>",
		"<!DOCTYPE html>",
		"<!doctype\vhtml>",
		"<! other decl >",
		"<!-- comment -->",
		"<!-- unterminated",
		"<!-- -- -->",
		"<?php echo ?>",
		"<?unterminated",
		"<br/>",
		"<br />",
		"<img src=x =/>",
		"<script>var x = 1;</script>",
		"<script></script>x",
		"<SCRIPT></SCRIPT>",
		"<script>x</scr",
		"<script>unclosed at EOF",
		"<SCRIPT TYPE=\"a\">var x=1;",
		"<script></scriptfoo>rest",
		"<style>p { color: red }</style>",
		"<xmp><p>not markup</p></xmp>",
		"<plaintext>everything raw",
		"<aé>8bit name</a>",
		"\x00<p>\x00</p>\x00",
		"<p attr=\">\" next>",
		"<p attr='>'>after</p>",
		"<p a='>\n>\n>\n>\n>'>",
	}
	for _, src := range cases {
		assertStreamsEqual(t, src)
	}
}

// FuzzDifferential fuzzes the oracle itself.
func FuzzDifferential(f *testing.F) {
	addSuiteSeeds(f)
	f.Add("<script></script><script>x</scr")
	f.Add("<a href='x>y</a <b><script>...</scr")
	// Name-cache seeds: a table row's cells, names of 16 and 17 bytes
	// (the fold buffer's edge), and a repeated mixed-case unknown name.
	f.Add("<TABLE><TR><TD>a<TD>b</TD><TH>c</th><TT>d</TT></TR><tr><td>e<th>f<tt>g</tt></TABLE>")
	f.Add("<TABLE BorderColorLight=x bordercolorlightx=y><bordercolorlight>a</BORDERCOLORLIGHTX>")
	f.Add("<CustomWidget Zap=1><customwidget ZAP=2><CUSTOMWIDGET zap=3></CustomWidget></customWIDGET>")
	f.Fuzz(func(t *testing.T, src string) {
		assertStreamsEqual(t, src)
	})
}
