package warn

import (
	"slices"
	"sync/atomic"
	"testing"
)

func TestEmitterExternalCancelFlag(t *testing.T) {
	e := NewEmitter(AllEnabled())
	var flag atomic.Bool
	e.SetCancelFlag(&flag)

	if e.Cancelled() {
		t.Fatal("cancelled before the flag flipped")
	}
	e.Emit("html-outer", "f.html", 1, 0)
	if n := len(e.Messages()); n != 1 {
		t.Fatalf("collected %d messages before cancellation", n)
	}

	flag.Store(true)
	if !e.Cancelled() {
		t.Fatal("flag flip not observed")
	}
	e.Emit("html-outer", "f.html", 2, 0)
	if n := len(e.Messages()); n != 1 {
		t.Fatalf("emit after external cancel delivered (have %d messages)", n)
	}

	// Reset drops the flag: the pooled emitter must not observe a
	// stale caller's deadline.
	e.Reset()
	if e.Cancelled() {
		t.Fatal("stale cancel flag survived Reset")
	}
}

func TestRegistryIntrospection(t *testing.T) {
	ids := IDs()
	if len(ids) == 0 || len(ids) != Count() {
		t.Fatalf("IDs() has %d entries, Count() = %d", len(ids), Count())
	}
	slices.Sort(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i-1] == ids[i] {
			t.Fatalf("IDs() lists %q twice", ids[i])
		}
	}
}

func TestEmitterOverlayEnableDisable(t *testing.T) {
	e := NewEmitter(AllEnabled())
	if !e.Enabled("html-outer") {
		t.Fatal("html-outer disabled under AllEnabled")
	}
	if err := e.Disable("html-outer"); err != nil {
		t.Fatal(err)
	}
	if e.Enabled("html-outer") {
		t.Fatal("Disable did not take in the overlay")
	}
	if err := e.Enable("html-outer"); err != nil {
		t.Fatal(err)
	}
	if !e.Enabled("html-outer") {
		t.Fatal("Enable did not take in the overlay")
	}
	if err := e.Disable("no-such-message-id"); err == nil {
		t.Fatal("unknown ID accepted")
	}
}

func TestEmitterCopyMessages(t *testing.T) {
	e := NewEmitter(AllEnabled())
	if got := e.CopyMessages(); got != nil {
		t.Fatalf("CopyMessages on an empty emitter = %v", got)
	}
	e.Emit("html-outer", "f.html", 1, 0)
	msgs := e.CopyMessages()
	if len(msgs) != 1 {
		t.Fatalf("copied %d messages", len(msgs))
	}
	e.Reset()
	if len(msgs) != 1 || msgs[0].ID != "html-outer" {
		t.Fatal("copy not independent of Reset")
	}
}

func TestSummaryCountAndFailOnString(t *testing.T) {
	var s Summary
	s.Add(Message{ID: "a", Category: Error})
	s.Add(Message{ID: "b", Category: Warning})
	s.Add(Message{ID: "c", Category: Warning})
	s.Add(Message{ID: "d", Category: Style})
	if s.Count(Error) != 1 || s.Count(Warning) != 2 || s.Count(Style) != 1 {
		t.Fatalf("counts = %d/%d/%d", s.Count(Error), s.Count(Warning), s.Count(Style))
	}
	for f, want := range map[FailOn]string{
		FailOnError: "error", FailOnWarning: "warning",
		FailOnStyle: "style", FailOnNever: "never",
	} {
		if f.String() != want {
			t.Errorf("FailOn(%d).String() = %q, want %q", f, f.String(), want)
		}
	}
}
