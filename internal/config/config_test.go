package config

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func parse(t *testing.T, src string) *Config {
	t.Helper()
	cfg, err := Parse(strings.NewReader(src), "test.rc")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return cfg
}

func apply(t *testing.T, src string) *Settings {
	t.Helper()
	s := NewSettings()
	if err := s.Apply(parse(t, src)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	return s
}

func TestEnableDisableDirectives(t *testing.T) {
	s := apply(t, `
# turn on the pedantic stuff
enable here-anchor physical-font
disable img-alt
`)
	if !s.Set.Enabled("here-anchor") || !s.Set.Enabled("physical-font") {
		t.Error("enable directive ineffective")
	}
	if s.Set.Enabled("img-alt") {
		t.Error("disable directive ineffective")
	}
}

func TestCommaSeparatedLists(t *testing.T) {
	s := apply(t, "enable here-anchor, physical-font,mailto-link\n")
	for _, id := range []string{"here-anchor", "physical-font", "mailto-link"} {
		if !s.Set.Enabled(id) {
			t.Errorf("%s not enabled", id)
		}
	}
}

func TestSplitList(t *testing.T) {
	for in, want := range map[string][]string{
		"":                       nil,
		"netscape":               {"netscape"},
		"netscape,microsoft":     {"netscape", "microsoft"},
		" img-alt, ,here-anchor": {"img-alt", "here-anchor"},
	} {
		if got := SplitList(in); !slices.Equal(got, want) {
			t.Errorf("SplitList(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCategoryDirectives(t *testing.T) {
	s := apply(t, "disable errors\nenable style\n")
	if s.Set.Enabled("unknown-element") {
		t.Error("errors not disabled")
	}
	if !s.Set.Enabled("here-anchor") {
		t.Error("style not enabled")
	}
}

func TestExtensionAndVersion(t *testing.T) {
	s := apply(t, "extension netscape microsoft\nhtml-version 3.2\n")
	if len(s.Extensions) != 2 || s.Extensions[0] != "netscape" {
		t.Errorf("extensions = %v", s.Extensions)
	}
	if s.HTMLVersion != "3.2" {
		t.Errorf("version = %q", s.HTMLVersion)
	}
}

func TestSetDirectives(t *testing.T) {
	s := apply(t, `
set tag-case upper
set attribute-case lower
set title-length 48
set output-style short
`)
	if s.TagCase != "upper" || s.AttrCase != "lower" {
		t.Errorf("cases = %q/%q", s.TagCase, s.AttrCase)
	}
	if s.TitleLength != 48 {
		t.Errorf("title-length = %d", s.TitleLength)
	}
	if s.OutputStyle != "short" {
		t.Errorf("output-style = %q", s.OutputStyle)
	}
}

func TestAddHereWords(t *testing.T) {
	s := apply(t, `add here-words "more info" "click me" plain`)
	want := []string{"more info", "click me", "plain"}
	if len(s.HereWords) != len(want) {
		t.Fatalf("here words = %v", s.HereWords)
	}
	for i := range want {
		if s.HereWords[i] != want[i] {
			t.Errorf("here word %d = %q, want %q", i, s.HereWords[i], want[i])
		}
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	s := apply(t, `

# full-line comment
enable here-anchor # trailing comment

`)
	if !s.Set.Enabled("here-anchor") {
		t.Error("directive with trailing comment ignored")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"frobnicate x",
		"enable",
		"html-version",
		"html-version 4.0 extra",
		"set tag-case",
		"add unknown-list x",
	}
	for _, src := range bad {
		if _, err := Parse(strings.NewReader(src), "bad.rc"); err == nil {
			t.Errorf("Parse(%q) did not error", src)
		}
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := Parse(strings.NewReader("enable here-anchor\nbogus\n"), "my.rc")
	if err == nil {
		t.Fatal("no error")
	}
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line != 2 || pe.Source != "my.rc" {
		t.Errorf("position = %s:%d", pe.Source, pe.Line)
	}
	if !strings.Contains(pe.Error(), "my.rc:2:") {
		t.Errorf("Error() = %q", pe.Error())
	}
}

func TestApplyErrors(t *testing.T) {
	cases := []string{
		"enable no-such-warning",
		"set title-length zero",
		"set title-length -3",
		"set output-style loud",
		"set unknown-key v",
	}
	for _, src := range cases {
		s := NewSettings()
		if err := s.Apply(parse(t, src)); err == nil {
			t.Errorf("Apply(%q) did not error", src)
		}
	}
}

// TestE4ConfigLayering is experiment E4: the paper's Section 4.4
// precedence — the user's file can extend or override the site
// configuration, and command-line switches override both.
func TestE4ConfigLayering(t *testing.T) {
	site := `
disable img-alt
disable here-anchor
set title-length 40
`
	user := `
enable here-anchor
set title-length 80
`
	s := NewSettings()
	if err := s.Apply(parse(t, site)); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(parse(t, user)); err != nil {
		t.Fatal(err)
	}

	// Site-only directives survive.
	if s.Set.Enabled("img-alt") {
		t.Error("site disable lost")
	}
	// User overrides site.
	if !s.Set.Enabled("here-anchor") {
		t.Error("user enable did not override site disable")
	}
	if s.TitleLength != 80 {
		t.Errorf("title-length = %d, want user's 80", s.TitleLength)
	}

	// Command-line layer (a third Apply) overrides both.
	cli := "disable here-anchor\n"
	if err := s.Apply(parse(t, cli)); err != nil {
		t.Fatal(err)
	}
	if s.Set.Enabled("here-anchor") {
		t.Error("command-line disable did not override user enable")
	}
}

func TestParseFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rc")
	if err := os.WriteFile(path, []byte("enable here-anchor\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSettings()
	if err := s.Apply(cfg); err != nil {
		t.Fatal(err)
	}
	if !s.Set.Enabled("here-anchor") {
		t.Error("file directives not applied")
	}
	if _, err := ParseFile(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file did not error")
	}
}

func TestLoadDefaultLayering(t *testing.T) {
	dir := t.TempDir()
	site := filepath.Join(dir, "site.rc")
	user := filepath.Join(dir, "user.rc")
	if err := os.WriteFile(site, []byte("disable img-alt\nset title-length 10\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(user, []byte("set title-length 99\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv("WEBLINTRC_SITE", site)
	t.Setenv("WEBLINTRC", user)

	s, err := LoadDefault()
	if err != nil {
		t.Fatal(err)
	}
	if s.Set.Enabled("img-alt") {
		t.Error("site config not loaded")
	}
	if s.TitleLength != 99 {
		t.Errorf("user config did not override: title-length = %d", s.TitleLength)
	}
}

func TestLoadDefaultMissingFilesOK(t *testing.T) {
	t.Setenv("WEBLINTRC_SITE", "/nonexistent/site.rc")
	t.Setenv("WEBLINTRC", "/nonexistent/user.rc")
	s, err := LoadDefault()
	if err != nil {
		t.Fatalf("missing rc files should not error: %v", err)
	}
	if !s.Set.Enabled("img-alt") {
		t.Error("defaults disturbed")
	}
}

func TestConfigPaths(t *testing.T) {
	t.Setenv("WEBLINTRC_SITE", "/tmp/s")
	t.Setenv("WEBLINTRC", "/tmp/u")
	if SiteConfigPath() != "/tmp/s" || UserConfigPath() != "/tmp/u" {
		t.Error("env overrides ignored")
	}
	t.Setenv("WEBLINTRC_SITE", "")
	if SiteConfigPath() != "/etc/weblintrc" {
		t.Errorf("default site path = %q", SiteConfigPath())
	}
	t.Setenv("WEBLINTRC", "")
	if p := UserConfigPath(); p != "" && !strings.HasSuffix(p, ".weblintrc") {
		t.Errorf("default user path = %q", p)
	}
}

func TestSplitDirective(t *testing.T) {
	got := splitDirective(`add here-words "two words" bare,comma`)
	want := []string{"add", "here-words", "two words", "bare", "comma"}
	if len(got) != len(want) {
		t.Fatalf("fields = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("field %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestFailOnSetting: "set fail-on" layers into Settings.FailOn with
// validation.
func TestFailOnSetting(t *testing.T) {
	s := NewSettings()
	cfg, err := Parse(strings.NewReader("set fail-on warning\n"), "rc")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(cfg); err != nil {
		t.Fatal(err)
	}
	if s.FailOn != "warning" {
		t.Errorf("FailOn = %q, want warning", s.FailOn)
	}
	bad, err := Parse(strings.NewReader("set fail-on fatal\n"), "rc")
	if err != nil {
		t.Fatal(err)
	}
	if err := NewSettings().Apply(bad); err == nil {
		t.Error("unknown fail-on threshold accepted")
	}
}

// TestMachineOutputStyles: output-style accepts the machine formats.
func TestMachineOutputStyles(t *testing.T) {
	for _, style := range []string{"json", "sarif"} {
		s := NewSettings()
		cfg, err := Parse(strings.NewReader("set output-style "+style+"\n"), "rc")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Apply(cfg); err != nil {
			t.Fatal(err)
		}
		if s.OutputStyle != style {
			t.Errorf("OutputStyle = %q, want %s", s.OutputStyle, style)
		}
	}
}
