package lint

import (
	"strings"
	"testing"

	"weblint/internal/config"
	"weblint/internal/plugin"
)

// namedChecker is a content checker that checks nothing: only its name
// reaches the fingerprint.
type namedChecker string

func (n namedChecker) Name() string                   { return string(n) }
func (namedChecker) Elements() []string               { return nil }
func (namedChecker) Check(string, int, plugin.Report) {}

// The cache contract: equal fingerprints must mean interchangeable
// linters, and any configuration input that can change findings must
// move the fingerprint.
func TestConfigFingerprintStableAndSensitive(t *testing.T) {
	base := func() Options {
		return Options{Settings: config.NewSettings()}
	}
	fp := func(o Options) string {
		t.Helper()
		return MustNew(o).ConfigFingerprint()
	}

	ref := fp(base())
	if ref == "" || len(ref) != 64 {
		t.Fatalf("fingerprint = %q, want 64 hex chars", ref)
	}
	if fp(base()) != ref {
		t.Fatal("identical options produced different fingerprints")
	}
	if fp(Options{}) != ref {
		t.Fatal("nil Settings is not equivalent to default Settings")
	}

	variants := map[string]Options{}

	o := base()
	o.Pedantic = true
	variants["pedantic"] = o

	o = base()
	o.Settings.HTMLVersion = "HTML 3.2"
	variants["html version"] = o

	o = base()
	o.Settings.Extensions = []string{"netscape"}
	variants["extensions"] = o

	o = base()
	o.Settings.Set.Disable("img-alt")
	variants["enabled set"] = o

	o = base()
	o.Settings.TagCase = "upper"
	variants["tag case"] = o

	o = base()
	o.Settings.TitleLength = 12
	variants["title length"] = o

	o = base()
	o.Settings.HereWords = []string{"press"}
	variants["here words"] = o

	o = base()
	o.Plugins = []plugin.ContentChecker{namedChecker("script")}
	variants["plugin set"] = o

	seen := map[string]string{ref: "default"}
	for name, o := range variants {
		got := fp(o)
		if prev, dup := seen[got]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[got] = name
	}

	// Extension order is canonicalised: permutations are the same
	// configuration, so they share a fingerprint.
	a, b := base(), base()
	a.Settings.Extensions = []string{"netscape", "microsoft"}
	b.Settings.Extensions = []string{"microsoft", "netscape"}
	if fp(a) != fp(b) {
		t.Error("extension order changed the fingerprint")
	}
}

// TestConfigFingerprintPinned pins the fingerprints of a default, a
// pedantic and an rc-configured linter. The gateway's ETags and cached
// results are keyed by them, so a change in how the warning selection
// is stored must leave them as they are; a deliberate change of the
// fingerprint updates these values and says why.
func TestConfigFingerprintPinned(t *testing.T) {
	const rc = `# a site style guide
enable style
disable img-alt, mailto-link
disable errors
enable unknown-element required-attribute
extension netscape
set tag-case upper
set title-length 48
add here-words "more info"
`
	cfg, err := config.Parse(strings.NewReader(rc), "weblintrc")
	if err != nil {
		t.Fatal(err)
	}
	settings := config.NewSettings()
	if err := settings.Apply(cfg); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		o    Options
		want string
	}{
		"default":  {Options{}, "1a824bf889cd8c062522ec60bea2227435179e846a63089cedd7b176b55e7944"},
		"pedantic": {Options{Pedantic: true}, "1b17c51c1eb2260b0997dcc94f127a32039d49dae48605df1f100a606757d046"},
		"rc":       {Options{Settings: settings}, "750fddf6776453ed8e1ad91716eeec0939f743157ac9b987b00dc709fb70b60d"},
	} {
		if got := MustNew(c.o).ConfigFingerprint(); got != c.want {
			t.Errorf("%s fingerprint = %s, want %s", name, got, c.want)
		}
	}
}
