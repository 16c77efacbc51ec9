package core

import (
	"reflect"
	"testing"
	"unsafe"

	"weblint/internal/htmltoken"
	"weblint/internal/textpos"
	"weblint/internal/warn"
)

// These tests find the checker's document state by reflection, so a
// field added to docState is covered without editing them.

// settable returns a settable view of the unexported field f.
func settable(f reflect.Value) reflect.Value {
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}

// stateField returns field i of the embedded group (docPositions or
// docFlags) in d.
func stateField(d *docState, group string, i int) reflect.Value {
	return settable(reflect.ValueOf(d).Elem().FieldByName(group).Field(i))
}

// refFields returns docState's slice and map fields, by name.
func refFields(d *docState) map[string]reflect.Value {
	v := reflect.ValueOf(d).Elem()
	out := map[string]reflect.Value{}
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice || f.Kind() == reflect.Map {
			out[v.Type().Field(i).Name] = settable(f)
		}
	}
	return out
}

// identityShift maps every position in src to itself.
func identityShift(src string) *textpos.Shift {
	ix := textpos.NewLF(src)
	return textpos.NewShift(ix, ix, 0, 0, "")
}

// TestCheckerFieldsArePlaced: every Checker field is either the
// document state or one of the session-scoped fields Snapshot leaves
// out by design, and every direct docState field is a slice or a map.
// A field added to Checker directly fails here until it is placed.
func TestCheckerFieldsArePlaced(t *testing.T) {
	session := map[string]bool{
		"opts": true, "spec": true, "em": true, "file": true,
		"slab": true, "attrSeen": true, "attrSeenByName": true,
		"relocateTok": true, "relocateFixes": true,
	}
	ct := reflect.TypeOf(Checker{})
	for i := 0; i < ct.NumField(); i++ {
		if f := ct.Field(i); !(f.Anonymous && f.Type == reflect.TypeOf(docState{})) && !session[f.Name] {
			t.Errorf("Checker.%s is neither in docState nor a session-scoped field", f.Name)
		}
	}
	dt := reflect.TypeOf(docState{})
	for i := 0; i < dt.NumField(); i++ {
		f := dt.Field(i)
		switch {
		case f.Type.Kind() == reflect.Slice, f.Type.Kind() == reflect.Map:
		case f.Anonymous && (f.Name == "docPositions" || f.Name == "docFlags"):
		default:
			t.Errorf("docState.%s is a plain value: put it in docPositions or docFlags", f.Name)
		}
	}
}

// TestScalarStateResetAndRestore: every scalar field of docPositions
// and docFlags, set to a non-zero value, goes back to freshState's
// value on Reset and comes back on Restore, and LiveEquals sees it.
func TestScalarStateResetAndRestore(t *testing.T) {
	em := warn.NewEmitter(nil)
	opts := Options{Filename: "t.html"}
	fresh := freshState
	for _, group := range []string{"docPositions", "docFlags"} {
		gt, _ := reflect.TypeOf(docState{}).FieldByName(group)
		for i := 0; i < gt.Type.NumField(); i++ {
			name := group + "." + gt.Type.Field(i).Name
			c := New(em, opts)
			v := stateField(&c.docState, group, i)
			var set reflect.Value
			switch v.Kind() {
			case reflect.Bool:
				set = reflect.ValueOf(true)
			case reflect.Int:
				set = reflect.ValueOf(7)
			case reflect.String:
				set = reflect.ValueOf("x")
			default:
				t.Fatalf("%s: no test value for kind %s", name, v.Kind())
			}
			v.Set(set)
			snap := c.Snapshot()
			c.Reset(em, opts)
			if want := stateField(&fresh, group, i); !v.Equal(want) {
				t.Errorf("%s = %v after Reset, want %v", name, v, want)
			}
			if snap.LiveEquals(c, identityShift("")) {
				t.Errorf("%s: LiveEquals misses a changed value", name)
			}
			c.Restore(snap)
			if !v.Equal(set) {
				t.Errorf("%s = %v after Restore, want %v", name, v, set)
			}
			if !snap.LiveEquals(c, identityShift("")) {
				t.Errorf("%s: state differs from its snapshot after Restore", name)
			}
		}
	}
}

// sharedStorage names the slice and map fields of a whose storage b
// also uses, stack entries and their text buffers included.
func sharedStorage(a, b *docState) []string {
	var shared []string
	bf := refFields(b)
	for name, av := range refFields(a) {
		bv := bf[name]
		if av.Pointer() != 0 && av.Pointer() == bv.Pointer() {
			shared = append(shared, name)
			continue
		}
		if av.Kind() != reflect.Slice || av.Type().Elem() != reflect.TypeOf((*open)(nil)) {
			continue
		}
		for i := 0; i < min(av.Len(), bv.Len()); i++ {
			ao, bo := av.Index(i).Interface().(*open), bv.Index(i).Interface().(*open)
			if ao != nil && (ao == bo || len(ao.text) > 0 && len(bo.text) > 0 && &ao.text[0] == &bo.text[0]) {
				shared = append(shared, name+" entry")
				break
			}
		}
	}
	return shared
}

// TestSnapshotOwnsItsStorage: neither a Snapshot nor a Restore leaves
// a slice or map shared between the snapshot and the checker, so
// mutating the checker after a Restore — in place, and by checking on
// — does not change what a second Restore from the snapshot gives.
// Every slice and map field is compared by LiveEquals. The unknown
// element (and attribute) keeps the name-keyed fallback for names
// outside the Sym vocabulary non-empty.
func TestSnapshotOwnsItsStorage(t *testing.T) {
	const src = `<HTML><HEAD><TITLE>t</TITLE><META NAME="description" CONTENT="x"></HEAD><BODY>
<FooWidget Zap=1><P ID="p1"><A NAME="top">x</A>
<B><I>overlap</B> <A HREF="z.html">link text
<P ID="p1">more</A></I><A NAME="top">again</A>
</BODY></HTML>`
	c := New(warn.NewEmitter(nil), Options{Filename: "t.html"})
	tz := htmltoken.New(src)
	var tok htmltoken.Token
	full := false
	for !full && tz.NextInto(&tok) {
		c.Step(&tok)
		full = len(c.stack) > 0 && len(c.top().text) > 0
		for _, v := range refFields(&c.docState) {
			full = full && v.Len() > 0
		}
	}
	if !full {
		t.Fatal("no token boundary has text accumulated and every slice and map field non-empty")
	}
	rest := src[tz.Pos():]

	snap := c.Snapshot()
	if s := sharedStorage(&snap.docState, &c.docState); len(s) > 0 {
		t.Fatalf("after Snapshot, the checker shares %v with it", s)
	}
	c.Restore(snap)
	if s := sharedStorage(&snap.docState, &c.docState); len(s) > 0 {
		t.Fatalf("after Restore, the checker shares %v with the snapshot", s)
	}
	want := c.Snapshot()

	identity := identityShift(src)
	for name, v := range refFields(&c.docState) {
		if !snap.LiveEquals(c, identity) {
			t.Fatalf("state differs from its snapshot before perturbing %s", name)
		}
		switch v.Kind() {
		case reflect.Map:
			v.SetMapIndex(reflect.ValueOf("perturbed"), reflect.Zero(v.Type().Elem()))
		case reflect.Slice:
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
		}
		if snap.LiveEquals(c, identity) {
			t.Errorf("LiveEquals misses a change to %s", name)
		}
		c.Restore(snap)
	}

	mutations := []func(){
		func() {
			for _, o := range c.stack {
				o.name += "-mutated"
				o.line += 100
				if len(o.text) > 0 {
					o.text[0] = '!'
				}
			}
			for i := range c.accum {
				c.accum[i] += 100
			}
			for k := range c.ids {
				c.ids[k] += 100
			}
			c.openTop[symBody] = 1
			c.openTopByName["mutated"] = 1
		},
		func() { c.Run(htmltoken.New(rest)) },
	}
	for i, mutate := range mutations {
		mutate()
		c.Restore(snap)
		if got := c.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("mutation %d: a second Restore gives\n%+v\nwant\n%+v", i, got.docState, want.docState)
		}
	}
}
