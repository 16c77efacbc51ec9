package htmlspec

import (
	"testing"

	"weblint/internal/htmltoken"
)

// Cross-version consistency invariants over the hand-written tables.
// These guard against table typos: every name a table references must
// resolve, and flag combinations must be coherent.

func allSpecs() map[string]*Spec {
	return map[string]*Spec{
		"2.0": HTML20(),
		"3.2": HTML32(),
		"4.0": HTML40(),
	}
}

func TestContextTargetsExist(t *testing.T) {
	for ver, s := range allSpecs() {
		for _, e := range s.Elements {
			for _, parent := range e.Context {
				if s.ElementSym(parent) == nil {
					t.Errorf("%s: %s lists unknown context parent %q", ver, e.Name, htmltoken.SymName(parent))
				}
			}
		}
	}
}

func TestImpliedEndTargetsExist(t *testing.T) {
	for ver, s := range allSpecs() {
		for _, e := range s.Elements {
			for _, sib := range e.ImpliedEndBy {
				if s.ElementSym(sib) == nil {
					t.Errorf("%s: %s lists unknown implied-end trigger %q", ver, e.Name, htmltoken.SymName(sib))
				}
			}
		}
	}
}

func TestFlagCoherence(t *testing.T) {
	for ver, s := range allSpecs() {
		for _, e := range s.Elements {
			if e.Empty && e.OmitClose {
				t.Errorf("%s: %s is both Empty and OmitClose", ver, e.Name)
			}
			if e.Empty && e.EmptyOK {
				t.Errorf("%s: %s is Empty yet EmptyOK", ver, e.Name)
			}
			if e.Inline && e.Structural {
				t.Errorf("%s: %s is both Inline and Structural", ver, e.Name)
			}
			if (e.Deprecated || e.Obsolete) && e.Replacement == "" {
				t.Errorf("%s: %s deprecated/obsolete without replacement", ver, e.Name)
			}
			if e.Deprecated && e.Obsolete {
				t.Errorf("%s: %s both deprecated and obsolete", ver, e.Name)
			}
		}
	}
}

func TestAttrTableCoherence(t *testing.T) {
	for ver, s := range allSpecs() {
		for _, e := range s.Elements {
			for name, a := range e.Attrs {
				if name != a.Name {
					t.Errorf("%s: %s attr keyed %q but named %q", ver, e.Name, name, a.Name)
				}
				if a.Type == Enum && len(a.Values) == 0 {
					t.Errorf("%s: %s/%s is Enum with no values", ver, e.Name, name)
				}
				if a.Type != Enum && len(a.Values) > 0 {
					t.Errorf("%s: %s/%s has values but is not Enum", ver, e.Name, name)
				}
				if a.Extension != "" && a.Extension != VendorNetscape && a.Extension != VendorMicrosoft {
					t.Errorf("%s: %s/%s has unknown vendor %q", ver, e.Name, name, a.Extension)
				}
				if a.Required && a.Extension != "" {
					t.Errorf("%s: %s/%s is a required vendor extension", ver, e.Name, name)
				}
			}
			// Empty elements cannot meaningfully require a close or
			// carry implied ends.
			if e.Empty && len(e.ImpliedEndBy) > 0 {
				t.Errorf("%s: empty element %s has ImpliedEndBy", ver, e.Name)
			}
		}
	}
}

func TestElementNameKeysMatch(t *testing.T) {
	for ver, s := range allSpecs() {
		for key, e := range s.Elements {
			if key != e.Name {
				t.Errorf("%s: element keyed %q but named %q", ver, key, e.Name)
			}
		}
	}
}

// TestVersionMonotonicity: every HTML 2.0 element exists in 3.2, and
// every 3.2 element exists in 4.0 (HTML grew monotonically through
// these versions; only vendor tags float free).
func TestVersionMonotonicity(t *testing.T) {
	s20, s32, s40 := HTML20(), HTML32(), HTML40()
	for name, e := range s20.Elements {
		if e.Extension != "" {
			continue
		}
		if name == "nextid" {
			continue // dropped after 2.0
		}
		if s32.Element(name) == nil {
			t.Errorf("2.0 element %s missing from 3.2", name)
		}
	}
	for name, e := range s32.Elements {
		if e.Extension != "" {
			continue
		}
		if s40.Element(name) == nil {
			t.Errorf("3.2 element %s missing from 4.0", name)
		}
	}
}

// TestOnceOnlyStructure: the once-only set is exactly the document
// skeleton in every version.
func TestOnceOnlyStructure(t *testing.T) {
	for ver, s := range allSpecs() {
		for _, name := range []string{"html", "head", "body", "title"} {
			if e := s.Element(name); e == nil || !e.OnceOnly {
				t.Errorf("%s: %s should be once-only", ver, name)
			}
		}
	}
}
