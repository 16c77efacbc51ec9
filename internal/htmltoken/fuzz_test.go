package htmltoken

import (
	"os"
	"path/filepath"
	"testing"

	"weblint/internal/bytestr"
)

// addSuiteSeeds feeds every sample of the lint test suite to the
// fuzzer as seed input, so fuzzing starts from realistic HTML with
// known malformations rather than from random bytes alone.
func addSuiteSeeds(f *testing.F) {
	f.Helper()
	dir := filepath.Join("..", "lint", "testdata", "suite")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatalf("suite testdata: %v", err)
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".html" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
		n++
	}
	if n < 25 {
		f.Fatalf("only %d suite seeds", n)
	}
}

// FuzzTokenize: the tokenizer never panics, NextInto and Tokenize over
// a string or a bytestr view agree token for token, and the token
// stream partitions the source exactly (every byte belongs to exactly
// one token, offsets line up).
func FuzzTokenize(f *testing.F) {
	addSuiteSeeds(f)
	f.Add("<a href='x>y</a <b><script>...</scr")
	f.Add("<!DOCTYPE html><!-- -- --><p&<>")
	f.Add("<script></script><SCRIPT TYPE=\"a\">var x=1;")
	f.Add("<script></scriptfoo>x<style></style>")
	f.Fuzz(func(t *testing.T, src string) {
		streamed := collectNextInto(src)
		batch := Tokenize(src)
		bytesBatch := Tokenize(bytestr.String([]byte(src)))

		if len(streamed) != len(batch) || len(batch) != len(bytesBatch) {
			t.Fatalf("token counts differ: NextInto=%d Tokenize=%d Tokenize(bytestr)=%d",
				len(streamed), len(batch), len(bytesBatch))
		}
		for i := range batch {
			assertTokensEqual(t, i, streamed[i], batch[i])
			assertTokensEqual(t, i, batch[i], bytesBatch[i])
		}

		pos := 0
		for i, tok := range batch {
			if tok.Offset != pos {
				t.Fatalf("token %d (%v): offset %d, want %d", i, tok.Type, tok.Offset, pos)
			}
			if tok.Raw != src[pos:pos+len(tok.Raw)] {
				t.Fatalf("token %d: Raw does not alias the source at its offset", i)
			}
			if len(tok.Raw) == 0 {
				t.Fatalf("token %d: empty Raw would stall the stream", i)
			}
			pos += len(tok.Raw)
			for _, at := range tok.Attrs {
				if at.Offset < 0 || at.Offset+len(at.Name) > len(src) {
					t.Fatalf("token %d: attr %q name span out of bounds", i, at.Name)
				}
				if at.HasValue && (at.ValOffset < 0 || at.ValOffset+len(at.Value) > len(src)) {
					t.Fatalf("token %d: attr %q value span out of bounds", i, at.Name)
				}
			}
		}
		if pos != len(src) {
			t.Fatalf("tokens cover %d of %d bytes", pos, len(src))
		}
	})
}

// collectNextInto drives the streaming API, copying out the per-token
// state that the next NextInto call is allowed to clobber.
func collectNextInto(src string) []Token {
	tz := New(src)
	var out []Token
	var tok Token
	for tz.NextInto(&tok) {
		cp := tok
		if len(tok.Attrs) > 0 {
			cp.Attrs = append([]Attr(nil), tok.Attrs...)
		}
		out = append(out, cp)
	}
	return out
}

func assertTokensEqual(t *testing.T, i int, a, b Token) {
	t.Helper()
	if a.Type != b.Type || a.Name != b.Name || a.Lower != b.Lower || a.Sym != b.Sym ||
		a.Text != b.Text || a.Raw != b.Raw ||
		a.Line != b.Line || a.Col != b.Col || a.Offset != b.Offset || a.EndLine != b.EndLine ||
		a.RawText != b.RawText || a.OddQuotes != b.OddQuotes ||
		a.Unterminated != b.Unterminated || a.SlashClose != b.SlashClose || a.EmptyTag != b.EmptyTag {
		t.Fatalf("token %d differs:\n%+v\nvs\n%+v", i, a, b)
	}
	if len(a.Attrs) != len(b.Attrs) {
		t.Fatalf("token %d: attr counts differ: %d vs %d", i, len(a.Attrs), len(b.Attrs))
	}
	for j := range a.Attrs {
		if a.Attrs[j] != b.Attrs[j] {
			t.Fatalf("token %d attr %d differs: %+v vs %+v", i, j, a.Attrs[j], b.Attrs[j])
		}
	}
}
