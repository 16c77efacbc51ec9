package warn

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryBasics(t *testing.T) {
	if Count() == 0 {
		t.Fatal("registry is empty")
	}
	if len(IDs()) != Count() {
		t.Errorf("IDs() length %d != Count() %d", len(IDs()), Count())
	}
	if Lookup("doctype-first") == nil {
		t.Error("doctype-first not registered")
	}
	if Lookup("no-such-warning") != nil {
		t.Error("bogus id resolved")
	}
}

// TestE2MessageInventory is experiment E2: the paper reports weblint
// 1.020 supported 50 output messages, 42 enabled by default, in three
// categories. This implementation is a weblint-2-generation rewrite
// with a larger inventory; the test pins the shape of the claim: a
// substantial inventory, most-but-not-all enabled by default, three
// categories all populated.
func TestE2MessageInventory(t *testing.T) {
	total := Count()
	enabled := DefaultEnabledCount()
	if total < 50 {
		t.Errorf("message inventory %d; the paper's tool had 50", total)
	}
	if enabled >= total {
		t.Error("every message is default-enabled; pedantic ones must be off")
	}
	if enabled < total/2 {
		t.Errorf("only %d/%d messages default-enabled; defaults should cover common practice", enabled, total)
	}
	byCat := CountByCategory()
	for _, c := range []Category{Error, Warning, Style} {
		if byCat[c] == 0 {
			t.Errorf("category %v has no messages", c)
		}
	}
	t.Logf("inventory: %d messages, %d enabled by default (paper: 50/42); errors=%d warnings=%d style=%d",
		total, enabled, byCat[Error], byCat[Warning], byCat[Style])
}

func TestEveryDefHasTextAndExplanation(t *testing.T) {
	for _, id := range IDs() {
		d := Lookup(id)
		if d.Format == "" {
			t.Errorf("%s: empty format", id)
		}
		if d.Explain == "" {
			t.Errorf("%s: empty explanation", id)
		}
		if d.Category != Error && d.Category != Warning && d.Category != Style {
			t.Errorf("%s: bad category %v", id, d.Category)
		}
	}
}

func TestCategoryString(t *testing.T) {
	cases := map[Category]string{Error: "error", Warning: "warning", Style: "style"}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(c), c.String(), want)
		}
	}
	if got := Category(42).String(); !strings.Contains(got, "42") {
		t.Errorf("unknown category string = %q", got)
	}
}

func TestParseCategory(t *testing.T) {
	for _, s := range []string{"error", "errors", "warning", "warnings", "style"} {
		if _, ok := ParseCategory(s); !ok {
			t.Errorf("ParseCategory(%q) failed", s)
		}
	}
	if _, ok := ParseCategory("nonsense"); ok {
		t.Error("ParseCategory accepted nonsense")
	}
}

func TestSetDefaults(t *testing.T) {
	s := NewSet()
	n := 0
	for _, id := range IDs() {
		if s.Enabled(id) != Lookup(id).Default {
			t.Errorf("%s: enabled=%v, default=%v", id, s.Enabled(id), Lookup(id).Default)
		}
		if s.Enabled(id) {
			n++
		}
	}
	if n != DefaultEnabledCount() {
		t.Errorf("enabled count %d != DefaultEnabledCount %d", n, DefaultEnabledCount())
	}
}

func TestSetEnableDisableByID(t *testing.T) {
	s := NewSet()
	if err := s.Disable("doctype-first"); err != nil {
		t.Fatal(err)
	}
	if s.Enabled("doctype-first") {
		t.Error("doctype-first still enabled after Disable")
	}
	if err := s.Enable("doctype-first"); err != nil {
		t.Fatal(err)
	}
	if !s.Enabled("doctype-first") {
		t.Error("doctype-first not enabled after Enable")
	}
}

func TestSetEnableUnknownID(t *testing.T) {
	s := NewSet()
	if err := s.Enable("made-up-warning"); err == nil {
		t.Error("Enable of unknown id did not error")
	}
	if err := s.Disable("made-up-warning"); err == nil {
		t.Error("Disable of unknown id did not error")
	}
}

func TestSetEnableByCategory(t *testing.T) {
	s := NewSet()
	if err := s.Enable("style"); err != nil {
		t.Fatal(err)
	}
	for _, id := range IDs() {
		if Lookup(id).Category == Style && !s.Enabled(id) {
			t.Errorf("style message %s not enabled after Enable(style)", id)
		}
	}
	if err := s.Disable("errors"); err != nil {
		t.Fatal(err)
	}
	for _, id := range IDs() {
		if Lookup(id).Category == Error && s.Enabled(id) {
			t.Errorf("error message %s still enabled after Disable(errors)", id)
		}
	}
}

func TestSetAll(t *testing.T) {
	s := NewSet()
	if err := s.Disable("all"); err != nil {
		t.Fatal(err)
	}
	if got := len(s.EnabledIDs()); got != 0 {
		t.Errorf("%d messages enabled after Disable(all)", got)
	}
	if err := s.Enable("all"); err != nil {
		t.Fatal(err)
	}
	if got := len(s.EnabledIDs()); got != Count() {
		t.Errorf("%d messages enabled after Enable(all), want %d", got, Count())
	}
}

func TestAllEnabled(t *testing.T) {
	s := AllEnabled()
	if len(s.EnabledIDs()) != Count() {
		t.Error("AllEnabled did not enable everything")
	}
}

// TestSetAndEmitterResolveAlike: Set.Enable/Disable and the emitter's
// directive Enable/Disable resolve every identifier form to the same
// messages — a message ID, each category spelling ParseCategory
// accepts, and "all" — starting from the defaults. An unknown
// identifier is an error from both and changes nothing.
func TestSetAndEmitterResolveAlike(t *testing.T) {
	names := func(id string) func(*Def) bool {
		if id == "all" {
			return func(*Def) bool { return true }
		}
		if cat, ok := ParseCategory(id); ok {
			return func(d *Def) bool { return d.Category == cat }
		}
		return func(d *Def) bool { return d.ID == id }
	}
	ids := []string{"img-alt", "here-anchor", "error", "errors", "warning", "warnings", "style", "all"}
	for _, id := range ids {
		for _, on := range []bool{true, false} {
			s, e := NewSet(), NewEmitter(NewSet())
			var errS, errE error
			if on {
				errS, errE = s.Enable(id), e.Enable(id)
			} else {
				errS, errE = s.Disable(id), e.Disable(id)
			}
			if errS != nil || errE != nil {
				t.Fatalf("%s (enable %v): Set error %v, Emitter error %v", id, on, errS, errE)
			}
			named, n := names(id), 0
			for _, d := range defs {
				want := d.Default
				if named(d) {
					want = on
					n++
				}
				if s.Enabled(d.ID) != want || e.Enabled(d.ID) != want {
					t.Errorf("%s (enable %v): %s is %v in the Set and %v in the Emitter, want %v",
						id, on, d.ID, s.Enabled(d.ID), e.Enabled(d.ID), want)
				}
			}
			if n == 0 {
				t.Errorf("%s names no message", id)
			}
		}
	}

	s, e := NewSet(), NewEmitter(NewSet())
	before := s.EnabledIDs()
	for _, err := range []error{s.Enable("no-such-rule"), s.Disable("no-such-rule"),
		e.Enable("no-such-rule"), e.Disable("no-such-rule")} {
		if err == nil || !strings.Contains(err.Error(), `unknown warning identifier "no-such-rule"`) {
			t.Errorf("unknown identifier: error %v", err)
		}
	}
	if !slices.Equal(s.EnabledIDs(), before) || e.Overrides() != (Overrides{}) {
		t.Error("an unknown identifier changed the Set or the Emitter's overrides")
	}
}

func TestEmitterFiltering(t *testing.T) {
	s := NewSet()
	if err := s.Disable("doctype-first"); err != nil {
		t.Fatal(err)
	}
	e := NewEmitter(s)
	e.Emit("doctype-first", "f.html", 1, 0)
	e.Emit("html-outer", "f.html", 1, 0)
	msgs := e.Messages()
	if len(msgs) != 1 || msgs[0].ID != "html-outer" {
		t.Fatalf("messages = %+v, want just html-outer", msgs)
	}
}

func TestEmitterFormatsArgs(t *testing.T) {
	e := NewEmitter(nil)
	e.Emit("unclosed-element", "f.html", 4, 0, "TITLE", "TITLE", 3)
	got := e.Messages()[0].Text
	want := "no closing </TITLE> seen for <TITLE> on line 3"
	if got != want {
		t.Errorf("text = %q, want %q", got, want)
	}
	if e.Messages()[0].Category != Error {
		t.Error("category not copied from def")
	}
}

func TestEmitterPanicsOnUnregistered(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on unregistered id")
		}
	}()
	NewEmitter(nil).Emit("bogus-id", "f", 1, 0)
}

func TestEmitterReset(t *testing.T) {
	e := NewEmitter(nil)
	e.Emit("html-outer", "f", 1, 0)
	e.Reset()
	if len(e.Messages()) != 0 {
		t.Error("messages survived Reset")
	}
}

func TestSortByLine(t *testing.T) {
	ms := []Message{
		{File: "b", Line: 1},
		{File: "a", Line: 9},
		{File: "a", Line: 2, Col: 5},
		{File: "a", Line: 2, Col: 1},
	}
	SortByLine(ms)
	// Same (file, line) keeps emission order: columns never reorder
	// (the checker's within-line order is part of the output contract).
	if ms[0].File != "a" || ms[0].Line != 2 || ms[0].Col != 5 {
		t.Errorf("sort order wrong: %+v", ms)
	}
	if ms[1].Col != 1 || ms[3].File != "b" {
		t.Errorf("stability/file order wrong: %+v", ms)
	}
}

func TestFormatters(t *testing.T) {
	m := Message{ID: "doctype-first", Category: Warning, File: "test.html", Line: 1,
		Text: "first element was not DOCTYPE specification"}

	if got := (Lint{}).Format(m); got != "test.html(1): first element was not DOCTYPE specification" {
		t.Errorf("lint format = %q", got)
	}
	if got := (Short{}).Format(m); got != "line 1: first element was not DOCTYPE specification" {
		t.Errorf("short format = %q", got)
	}
	if got := (Terse{}).Format(m); got != "test.html:1:doctype-first" {
		t.Errorf("terse format = %q", got)
	}
	v := (Verbose{}).Format(m)
	if !strings.Contains(v, "test.html(1):") || !strings.Contains(v, "\n    ") {
		t.Errorf("verbose format missing parts: %q", v)
	}
	if !strings.Contains(v, "[doctype-first, warning]") {
		t.Errorf("verbose format missing id/category: %q", v)
	}
}

// TestVerboseWrapWidth: explanation lines are indented four columns
// and filled up to, never past, column 72.
func TestVerboseWrapWidth(t *testing.T) {
	m := Message{ID: "doctype-first", File: "f", Line: 1, Text: "x"}
	lines := strings.Split((Verbose{}).Format(m), "\n")[1:]
	if len(lines) < 2 {
		t.Fatalf("explanation not wrapped: %q", lines)
	}
	for i, line := range lines {
		if len(line) > 72 || !strings.HasPrefix(line, "    ") {
			t.Errorf("explanation line %d (%d columns): %q", i, len(line), line)
		}
		if i+1 < len(lines) {
			next := strings.Fields(lines[i+1])[0]
			if len(line)+1+len(next) <= 72 {
				t.Errorf("line %d breaks before %q, which fits in 72 columns: %q", i, next, line)
			}
		}
	}
}

func TestFormatterFunc(t *testing.T) {
	f := FormatterFunc(func(m Message) string { return m.ID })
	if f.Format(Message{ID: "x"}) != "x" {
		t.Error("FormatterFunc did not delegate")
	}
}

func TestWrap(t *testing.T) {
	lines := wrap("a b c d e f", 3)
	for _, l := range lines {
		if len(l) > 8 {
			t.Errorf("line %q exceeds clamped width", l)
		}
	}
	if len(wrap("", 20)) != 0 {
		t.Error("wrap of empty text returned lines")
	}
	one := wrap("word", 20)
	if len(one) != 1 || one[0] != "word" {
		t.Errorf("wrap single word = %v", one)
	}
}

// TestLateRegistrationConfigurable verifies a message registered after
// a Set was built can still be enabled/disabled through that Set, and
// stays silent until explicitly enabled (the semantics of the original
// id→bool set).
func TestLateRegistrationConfigurable(t *testing.T) {
	s := NewSet()
	Register(Def{
		ID: "late-test-check", Category: Warning, Default: true,
		Format: "late check: %s",
	})
	e := NewEmitter(s)
	e.Emit("late-test-check", "f", 1, 0, "x")
	if len(e.Messages()) != 0 {
		t.Error("late-registered id emitted without being enabled in the set")
	}
	if err := s.Enable("late-test-check"); err != nil {
		t.Fatalf("Enable of late-registered id: %v", err)
	}
	if !s.Enabled("late-test-check") {
		t.Error("late-registered id not enabled after Enable")
	}
	e.Emit("late-test-check", "f", 1, 0, "x")
	if len(e.Messages()) != 1 || e.Messages()[0].Text != "late check: x" {
		t.Errorf("messages = %+v", e.Messages())
	}
	if err := s.Disable("late-test-check"); err != nil {
		t.Fatalf("Disable of late-registered id: %v", err)
	}
	if s.Enabled("late-test-check") {
		t.Error("still enabled after Disable")
	}
}

// TestRegisterCap: the registry takes maxRules messages, each at its
// registration index, and register panics on one more. It runs on an
// empty registry and puts the real one back.
func TestRegisterCap(t *testing.T) {
	savedRegistry, savedDefs := registry, defs
	defer func() { registry, defs = savedRegistry, savedDefs }()
	registry, defs = map[string]*Def{}, nil
	for i := 0; i < maxRules; i++ {
		register(Def{ID: strconv.Itoa(i)})
	}
	if Lookup("0").index != 0 || Lookup(strconv.Itoa(maxRules-1)).index != maxRules-1 {
		t.Error("a message's index is not its registration order")
	}
	if got := len(AllEnabled().EnabledIDs()); got != maxRules {
		t.Errorf("AllEnabled enables %d of %d messages", got, maxRules)
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic registering one message past the cap")
		}
	}()
	register(Def{ID: "one-too-many"})
}

// TestEmitterSetIsPrivate verifies NewEmitter(nil) emitters do not
// share mutable state: disabling through one emitter's Set must not
// affect another.
func TestEmitterSetIsPrivate(t *testing.T) {
	a := NewEmitter(nil)
	b := NewEmitter(nil)
	if err := a.Set().Disable("img-alt"); err != nil {
		t.Fatal(err)
	}
	if !b.Set().Enabled("img-alt") {
		t.Error("mutating one nil-set emitter's Set affected another")
	}
}
