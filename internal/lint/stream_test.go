package lint

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"reflect"
	"strings"
	"testing"

	"weblint/internal/bufpool"
	"weblint/internal/warn"
)

const streamDoc = `<HTML>
<HEAD><TITLE>stream</TITLE></HEAD>
<BODY>
<IMG SRC="a.gif">
<P ALIGN=middle>text & more
</BODY>
</HTML>
`

// TestCheckStringToMatchesCheckString: collecting the stream and
// sorting it reproduces the slice API exactly — the slice APIs are the
// collect-sink wrapper over the streaming core.
func TestCheckStringToMatchesCheckString(t *testing.T) {
	l := MustNew(Options{})
	want := l.CheckString("doc.html", streamDoc)
	if len(want) == 0 {
		t.Fatal("fixture produced no messages")
	}

	var c warn.Collector
	l.CheckStringTo("doc.html", streamDoc, &c)
	got := append([]warn.Message(nil), c.Messages...)
	warn.SortByLine(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("streamed+sorted = %+v\nwant %+v", got, want)
	}
}

// TestCheckStringToStreamsInEmissionOrder: the stream arrives in
// document order with end-of-document checks last, unsorted.
func TestCheckStringToStreamsInEmissionOrder(t *testing.T) {
	l := MustNew(Options{})
	var c warn.Collector
	// No TITLE: require-title is emitted by Finish, after everything.
	l.CheckStringTo("doc.html", "<HTML><BODY><IMG SRC=x.gif></BODY></HTML>", &c)
	if len(c.Messages) == 0 {
		t.Fatal("no messages streamed")
	}
	last := c.Messages[len(c.Messages)-1]
	if last.ID != "require-meta" && last.ID != "require-title" && last.ID != "require-head" {
		t.Errorf("last streamed message = %s, want an end-of-document check", last.ID)
	}
}

// TestCheckStringToCancellation: a sink returning false stops the
// check — no further messages are delivered, even though the rest of
// the document is full of findings.
func TestCheckStringToCancellation(t *testing.T) {
	var b strings.Builder
	b.WriteString("<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY>\n")
	for i := 0; i < 5000; i++ {
		b.WriteString("<IMG SRC=\"x.gif\">\n") // img-alt + img-size each line
	}
	b.WriteString("</BODY></HTML>\n")
	doc := b.String()

	l := MustNew(Options{})
	var all warn.Collector
	l.CheckStringTo("big.html", doc, &all)
	if len(all.Messages) < 5000 {
		t.Fatalf("fixture only produced %d messages", len(all.Messages))
	}

	n := 0
	l.CheckStringTo("big.html", doc, warn.SinkFunc(func(warn.Message) bool {
		n++
		return false
	}))
	if n != 1 {
		t.Errorf("cancelled stream delivered %d messages, want 1", n)
	}
}

// TestPooledStateAfterStreaming: a streaming check must not leak its
// sink or its cancellation into the pooled bundle the next slice-API
// check draws.
func TestPooledStateAfterStreaming(t *testing.T) {
	l := MustNew(Options{})
	want := l.CheckString("doc.html", streamDoc)

	l.CheckStringTo("doc.html", streamDoc, warn.SinkFunc(func(warn.Message) bool { return false }))
	got := l.CheckString("doc.html", streamDoc)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("slice API after a cancelled stream = %+v\nwant %+v", got, want)
	}
}

// TestCheckReaderTo: a document read from an io.Reader into a pooled
// buffer streams its messages through Check under the name it was
// given, and they stay intact once the buffer goes back to the pool
// and is overwritten.
func TestCheckReaderTo(t *testing.T) {
	l := MustNew(Options{})
	buf := bufpool.Get()
	if _, err := buf.ReadFrom(strings.NewReader(streamDoc)); err != nil {
		t.Fatal(err)
	}
	var c warn.Collector
	if err := l.Check(context.Background(), "r.html", buf.Bytes(), &c); err != nil {
		t.Fatal(err)
	}
	clear(buf.Bytes())
	bufpool.Put(buf)
	if len(c.Messages) == 0 {
		t.Error("no messages streamed from reader")
	}
	for _, m := range c.Messages {
		if m.File != "r.html" {
			t.Errorf("message file = %q, want r.html", m.File)
		}
	}
	warn.SortByLine(c.Messages)
	if want := l.CheckString("r.html", streamDoc); !reflect.DeepEqual(c.Messages, want) {
		t.Errorf("streamed reader messages = %v\nwant %v", c.Messages, want)
	}
}

// TestCheckFileToMissingFile: reading a missing file fails before any
// check runs, with an error that says the file does not exist.
func TestCheckFileToMissingFile(t *testing.T) {
	var buf bytes.Buffer
	if err := ReadFile("/nonexistent/no.html", &buf); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("ReadFile of a missing file: err = %v, want fs.ErrNotExist", err)
	}
	if _, err := MustNew(Options{}).CheckFile("/nonexistent/no.html"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("CheckFile of a missing file: err = %v, want fs.ErrNotExist", err)
	}
}

// TestStartTagColumns: the high-traffic start-tag/attribute emission
// sites carry tokenizer columns through to the messages.
func TestStartTagColumns(t *testing.T) {
	l := MustNew(Options{})
	//        123456789...
	doc := "<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY>\n" +
		"  <IMG SRC=\"x.gif\" BOGUS=\"1\">\n" +
		"</BODY></HTML>\n"
	byID := map[string]warn.Message{}
	for _, m := range l.CheckString("col.html", doc) {
		byID[m.ID] = m
	}
	img, ok := byID["img-alt"]
	if !ok || img.Line != 2 || img.Col != 3 {
		t.Errorf("img-alt at %d:%d, want 2:3 (%+v)", img.Line, img.Col, img)
	}
	bogus, ok := byID["unknown-attribute"]
	if !ok || bogus.Line != 2 || bogus.Col != 20 {
		t.Errorf("unknown-attribute at %d:%d, want 2:20 (%+v)", bogus.Line, bogus.Col, bogus)
	}
}
