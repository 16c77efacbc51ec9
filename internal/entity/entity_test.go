package entity

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCount(t *testing.T) {
	// HTML 4.0 defines 252 character entities.
	if got := len(table); got != 252 {
		t.Errorf("table has %d entities, want 252 (the HTML 4.0 entity set)", got)
	}
}

func TestKnownIn(t *testing.T) {
	// Latin-1 entities exist in both versions.
	if !KnownIn("eacute", false) || !KnownIn("eacute", true) {
		t.Error("eacute should be known in 3.2 and 4.0")
	}
	// The symbol/special collections are 4.0-only.
	for _, name := range []string{"alpha", "euro", "mdash", "trade"} {
		if KnownIn(name, false) {
			t.Errorf("%s should not be known in HTML 3.2", name)
		}
		if !KnownIn(name, true) {
			t.Errorf("%s should be known in HTML 4.0", name)
		}
	}
	// Names are case-sensitive.
	for _, name := range []string{"bogus", "AMP", "nbsp2", ""} {
		if KnownIn(name, true) {
			t.Errorf("KnownIn(%q) = true", name)
		}
	}
	// Every table entry, written as a reference, scans as one whole
	// terminated name the checker then knows.
	for name := range table {
		refs := scan("&" + name + ";")
		if len(refs) != 1 || refs[0].Name != name || !refs[0].Terminated || !KnownIn(refs[0].Name, true) {
			t.Errorf("&%s; scans as %+v", name, refs)
		}
	}
}

func TestVersionSplit(t *testing.T) {
	html32 := 0
	for _, html40 := range table {
		if !html40 {
			html32++
		}
	}
	// 96 Latin-1 entities plus amp, lt, gt, quot.
	if html32 != 100 {
		t.Errorf("HTML 3.2 entity count = %d, want 100", html32)
	}
}

// scan collects the references ScanFunc streams.
func scan(text string) []Ref {
	var refs []Ref
	ScanFunc(text, func(r Ref) { refs = append(refs, r) })
	return refs
}

func TestScanTerminated(t *testing.T) {
	refs := scan("a &amp; b &copy; c")
	if len(refs) != 2 {
		t.Fatalf("got %d refs, want 2: %+v", len(refs), refs)
	}
	if refs[0].Name != "amp" || !refs[0].Terminated || refs[0].Numeric {
		t.Errorf("ref 0 = %+v", refs[0])
	}
	if refs[1].Name != "copy" || !refs[1].Terminated {
		t.Errorf("ref 1 = %+v", refs[1])
	}
}

func TestScanUnterminated(t *testing.T) {
	refs := scan("fish &amp chips")
	if len(refs) != 1 || refs[0].Name != "amp" || refs[0].Terminated {
		t.Fatalf("refs = %+v", refs)
	}
}

func TestScanNumeric(t *testing.T) {
	refs := scan("&#160; &#xA0; &#999")
	if len(refs) != 3 {
		t.Fatalf("got %d refs: %+v", len(refs), refs)
	}
	if !refs[0].Numeric || !refs[0].Terminated || refs[0].Name != "#160" {
		t.Errorf("decimal ref = %+v", refs[0])
	}
	if !refs[1].Numeric || !refs[1].Terminated || refs[1].Name != "#xA0" {
		t.Errorf("hex ref = %+v", refs[1])
	}
	if refs[2].Terminated {
		t.Errorf("unterminated numeric ref marked terminated: %+v", refs[2])
	}
}

func TestScanBareAmpersand(t *testing.T) {
	refs := scan("AT&T and K&R & so on")
	bare := 0
	for _, r := range refs {
		if r.Name == "" && !r.Numeric {
			bare++
		}
	}
	// "&T" and "&R" parse as unterminated refs; "& " is bare.
	if bare != 1 {
		t.Errorf("bare ampersands = %d, want 1 (refs: %+v)", bare, refs)
	}
}

func TestScanOffsets(t *testing.T) {
	text := "xx &lt; yy &gt;"
	for _, r := range scan(text) {
		if text[r.Offset] != '&' {
			t.Errorf("offset %d does not point at '&'", r.Offset)
		}
	}
}

// TestScanNeverPanics quick-checks ScanFunc over arbitrary strings,
// after hand-picked edge shapes (trailing '&', runs of '&&', digits
// after '&#', case-mixed names): every reference it reports points at
// an '&' of the text.
func TestScanNeverPanics(t *testing.T) {
	f := func(s string) bool {
		for _, r := range scan(s) {
			if r.Offset < 0 || r.Offset >= len(s) || s[r.Offset] != '&' {
				return false
			}
		}
		return true
	}
	for _, s := range []string{
		"", "&", "&&", "&;", "&amp;", "&amp", "&#65;", "&#x41;", "&#x41",
		"&#;", "&#", "a & b &lt; c", "&bogus;&bogus;", "tail&",
		"&amp;&#38;&#x26;&", "\n&\n&amp\n", strings.Repeat("&", 64),
	} {
		if !f(s) {
			t.Errorf("ScanFunc misplaces a reference in %q: %+v", s, scan(s))
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
