package lint

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"weblint/internal/warn"
)

// TestCheckStringToCtxNoDeadlineMatchesPlain: Check without a
// deadline, and under a context that could end but never does,
// delivers exactly the stream of the plain path, suppressed IDs
// included: they reach the caller's sink whether or not the context
// can end.
func TestCheckStringToCtxNoDeadlineMatchesPlain(t *testing.T) {
	l := MustNew(Options{})
	src := `<HTML><HEAD><TITLE>x</TITLE></HEAD><BODY><H1>a</H2></BODY></HTML>`
	var plain warn.Recorder
	l.CheckStringTo("doc.html", src, &plain)
	if len(plain.Messages) == 0 || len(plain.SuppressedIDs) == 0 {
		t.Fatal("fixture produced no messages or no suppressions")
	}

	cancellable, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, ctx := range []context.Context{context.Background(), cancellable} {
		var got warn.Recorder
		if err := l.Check(ctx, "doc.html", []byte(src), &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, plain) {
			t.Fatalf("Check %+v\nplain %+v", got, plain)
		}
	}
}

// TestCheckBytesToCtxCancelledBeforeStart: a deadline already past
// when Check starts stops it before any message is delivered.
func TestCheckBytesToCtxCancelledBeforeStart(t *testing.T) {
	l := MustNew(Options{})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	var sink warn.Collector
	err := l.Check(ctx, "doc.html", []byte("<HTML><BODY><H1>a</H2></BODY></HTML>"), &sink)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if len(sink.Messages) != 0 {
		t.Fatalf("%d messages delivered after the deadline", len(sink.Messages))
	}
}

// TestCheckStringToCtxCancelledBeforeStart: a context cancelled before
// Check starts returns context.Canceled with no messages.
func TestCheckStringToCtxCancelledBeforeStart(t *testing.T) {
	l := MustNew(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	var sink warn.Collector
	err := l.Check(ctx, "doc.html", []byte("<HTML><BODY><H1>a</H2></BODY></HTML>"), &sink)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(sink.Messages) != 0 {
		t.Fatalf("%d messages delivered after cancellation", len(sink.Messages))
	}
}

// TestCheckStringToCtxStopsQuietDocumentPromptly is the budget seam's
// hard case: a huge document that emits nothing gives the sink no
// Write to refuse, so only the emitter's polled cancel flag can stop
// the tokenizer. A tight deadline over many megabytes must return in
// far less time than the full tokenize would take.
func TestCheckStringToCtxStopsQuietDocumentPromptly(t *testing.T) {
	l := MustNew(Options{})
	// A long clean body: no per-token findings, tokenized start to end
	// when uncancelled.
	var b strings.Builder
	b.WriteString("<!DOCTYPE HTML><HTML><HEAD><TITLE>t</TITLE>" +
		`<META NAME="description" CONTENT="d"><META NAME="keywords" CONTENT="k"></HEAD><BODY>`)
	for i := 0; i < 400000; i++ {
		b.WriteString("<P>some perfectly ordinary filler text</P>\n")
	}
	b.WriteString("</BODY></HTML>")
	src := b.String()

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	var sink warn.Collector
	start := time.Now()
	err := l.Check(ctx, "big.html", []byte(src), &sink)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded (doc %d bytes in %v)", err, len(src), elapsed)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v for a 1ms budget", elapsed)
	}
}
