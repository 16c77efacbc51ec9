package lsp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestFramingRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := newConn(&buf, &buf)
	if err := c.notify("textDocument/publishDiagnostics", map[string]any{"uri": "file:///x"}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "Content-Length: ") {
		t.Fatalf("no framing header: %q", buf.String())
	}
	m, err := c.read()
	if err != nil {
		t.Fatal(err)
	}
	if m.Method != "textDocument/publishDiagnostics" {
		t.Errorf("method = %q", m.Method)
	}
	if _, err := c.read(); err != io.EOF {
		t.Errorf("second read err = %v, want EOF", err)
	}
}

func TestFramingHeaderVariants(t *testing.T) {
	body := `{"jsonrpc":"2.0","method":"x"}`
	// Lower-case header name and an extra ignored header.
	in := fmt.Sprintf("content-length: %d\r\ncontent-type: application/vscode-jsonrpc; charset=utf-8\r\n\r\n%s", len(body), body)
	m, err := newConn(strings.NewReader(in), io.Discard).read()
	if err != nil {
		t.Fatal(err)
	}
	if m.Method != "x" {
		t.Errorf("method = %q", m.Method)
	}
}

func TestFramingMissingLength(t *testing.T) {
	if _, err := newConn(strings.NewReader("X-Other: 1\r\n\r\n{}"), io.Discard).read(); err == nil {
		t.Fatal("missing Content-Length accepted")
	}
}

// TestRunRefusesHugeContentLength: a Content-Length no slice can hold
// ends Run with an error naming the cap instead of a panic that would
// kill the server.
func TestRunRefusesHugeContentLength(t *testing.T) {
	in := "Content-Length: 4611686018427387904\r\n\r\n"
	err := NewServer(Options{}).Run(strings.NewReader(in), io.Discard)
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(maxFrame)) {
		t.Fatalf("Run = %v, want an error naming the %d-byte cap", err, maxFrame)
	}
}

// TestFramingOverCapAllocatesNothing: a header claiming just over the
// cap, with no body behind it, is refused before the claimed length is
// allocated.
func TestFramingOverCapAllocatesNothing(t *testing.T) {
	in := "Content-Length: " + strconv.Itoa(maxFrame+1) + "\r\n\r\n"
	c := newConn(strings.NewReader(in), io.Discard)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := c.read()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("over-cap frame accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("refusing a %d-byte claim allocated %d bytes", maxFrame+1, got)
	}
}

func TestFramingBadJSONIsProtocolError(t *testing.T) {
	in := "Content-Length: 5\r\n\r\n{nope"
	_, err := newConn(strings.NewReader(in), io.Discard).read()
	var perr *protocolError
	if ok := errorsAs(err, &perr); !ok || perr.code != codeParseError {
		t.Fatalf("err = %v, want protocolError(parse)", err)
	}
}

func errorsAs(err error, target **protocolError) bool {
	p, ok := err.(*protocolError)
	if ok {
		*target = p
	}
	return ok
}

func TestRespondNullResult(t *testing.T) {
	var buf bytes.Buffer
	c := newConn(strings.NewReader(""), &buf)
	id := json.RawMessage(`1`)
	if err := c.respond(id, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"result":null`) {
		t.Errorf("null result not serialised: %q", buf.String())
	}
}
