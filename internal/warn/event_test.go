package warn

import (
	"reflect"
	"testing"
)

// TestEventRendersDeliveredMessage: the event sink receives every
// enabled emission as an Event embedding the Message an emitter
// without an event sink delivers, and nothing for a suppressed one;
// while it is set, the emitter's Sink receives nothing. Only an
// emission with a LineRef argument keeps its template and arguments,
// and Reformat renders them to the same text. The event owns its args
// and fix, so recycling the caller's buffers cannot change it.
func TestEventRendersDeliveredMessage(t *testing.T) {
	set := NewSet()
	if err := set.Disable("img-alt"); err != nil {
		t.Fatal(err)
	}
	emitAll := func(e *Emitter) (name []byte, fix *Fix) {
		name = []byte("TITLE")
		fix = &Fix{Label: "close " + string(name), Edits: []Edit{{Start: 4, End: 4, Text: "</TITLE>"}}}
		e.EmitFix("unclosed-element", "t.html", 4, 1, fix, string(name), string(name), LineRef(3))
		e.Emit("element-overlap", "t.html", 7, 20, "B", LineRef(7), "A", 7)
		e.Emit("img-alt", "t.html", 9, 1)
		e.Emit("require-title", "t.html", 1, 0)
		return name, fix
	}
	e := NewEmitter(set)
	var events []Event
	e.SetEventSink(func(ev Event) { events = append(events, ev) })
	var skipped Recorder
	e.SetSink(&skipped)
	name, fix := emitAll(e)
	copy(name, "xxxxx")
	fix.Edits[0].Text = "mutated"
	if len(skipped.Messages) != 0 || len(skipped.SuppressedIDs) != 0 {
		t.Fatalf("sink received %v and suppressions %v beside the event sink", skipped.Messages, skipped.SuppressedIDs)
	}

	plain := NewEmitter(set)
	emitAll(plain)
	msgs := plain.Messages()
	if len(events) != 3 || len(msgs) != 3 {
		t.Fatalf("%d events for %d messages, want 3 and 3", len(events), len(msgs))
	}
	for i, ev := range events {
		if !reflect.DeepEqual(ev.Message, msgs[i]) {
			t.Errorf("event %d holds %+v\nwant %+v", i, ev.Message, msgs[i])
		}
		if keeps := ev.Args != nil; keeps != (i < 2) || (ev.Format != "") != keeps {
			t.Errorf("event %d keeps format %q and args %v", i, ev.Format, ev.Args)
			continue
		}
		if ev.Args != nil {
			ev.Reformat()
			if ev.Text != msgs[i].Text {
				t.Errorf("event %d reformats to %q, want %q", i, ev.Text, msgs[i].Text)
			}
		}
	}
	if msgs[0].Text != "no closing </TITLE> seen for <TITLE> on line 3" {
		t.Errorf("message text = %q", msgs[0].Text)
	}

	e.Reset()
	e.Emit("require-title", "t.html", 1, 0)
	if len(events) != 3 {
		t.Fatal("Reset left the event sink installed")
	}
}

func TestStaticLine(t *testing.T) {
	for id, want := range map[string]bool{"require-title": true, "html-outer": true, "img-alt": false} {
		if StaticLine(id) != want {
			t.Errorf("StaticLine(%q) = %v, want %v", id, !want, want)
		}
	}
}

// TestOverlayCloneRestore: the in-document directive overlay round-trips
// through CloneOverlay/RestoreOverlay, and the clone is independent.
func TestOverlayCloneRestore(t *testing.T) {
	e := NewEmitter(NewSet())
	if e.CloneOverlay() != nil || !e.OverlayEquals(nil) {
		t.Fatal("fresh emitter has an overlay")
	}
	if err := e.Disable("img-alt"); err != nil {
		t.Fatal(err)
	}
	snap := e.CloneOverlay()
	if !e.OverlayEquals(snap) {
		t.Fatal("overlay differs from its own clone")
	}
	if err := e.Enable("here-anchor"); err != nil {
		t.Fatal(err)
	}
	if e.OverlayEquals(snap) || len(snap) != 1 {
		t.Fatalf("clone %v tracks later overrides", snap)
	}
	e.RestoreOverlay(snap)
	if !e.OverlayEquals(snap) || e.Enabled("img-alt") {
		t.Fatal("RestoreOverlay did not bring back the snapshot")
	}
	e.RestoreOverlay(nil)
	if !e.OverlayEquals(nil) || !e.Enabled("img-alt") {
		t.Fatal("RestoreOverlay(nil) did not clear the overlay")
	}
	fresh := NewEmitter(NewSet())
	fresh.RestoreOverlay(snap)
	if !fresh.OverlayEquals(snap) {
		t.Fatal("RestoreOverlay into an emitter without an overlay")
	}
}
