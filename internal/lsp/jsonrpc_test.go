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
	params := publishDiagnosticsParams{URI: "file:///x", Diagnostics: []Diagnostic{}}
	if err := c.notify("textDocument/publishDiagnostics", params.appendJSON); err != nil {
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

// TestRespondNullResult checks every frame shape send writes against
// the reference, Content-Length plus json.Marshal of the message, byte
// for byte: a null result (which must be present), an object result,
// the hand-encoded diagnostics of a pull and a publish, ids as
// encoding/json writes a RawMessage (compacted, HTML-escaped), a
// notification, and errors with and without an id.
func TestRespondNullResult(t *testing.T) {
	diags := []Diagnostic{
		{Range: Range{Start: Position{0, 3}, End: Position{0, 17}}, Severity: SeverityError, Code: "img-alt", Source: "weblint",
			Message: `IMG does not have ALT text defined: <IMG SRC="a&b.gif">`},
		{Range: Range{Start: Position{41, 0}, End: Position{42, 1}}, Message: "line\tsep\u2028 bad\xff \x01 \"q\" \\ é😀"},
	}
	report := fullDocumentDiagnosticReport{Kind: "full", Items: diags}
	publish := publishDiagnosticsParams{URI: "file:///w/a&b.html", Version: 7, Diagnostics: diags}
	unversioned := publishDiagnosticsParams{URI: "untitled:x", Diagnostics: []Diagnostic{}}
	initialize := initializeResult{ServerInfo: serverInfo{Name: "weblint-lsp", Version: "2.0"}}
	u2028 := "\"line\u2028sep\""
	cases := []struct {
		name string
		send func(*conn) error
		want message
	}{
		{"null result", func(c *conn) error { return c.respondJSON(json.RawMessage(`1`), nil) },
			message{ID: json.RawMessage(`1`), Result: json.RawMessage(`null`)}},
		{"object result", func(c *conn) error { return c.respondJSON(json.RawMessage(`2`), initialize) },
			message{ID: json.RawMessage(`2`), Result: mustJSON(t, initialize)}},
		{"pull report", func(c *conn) error { return c.respond(json.RawMessage(`3`), report.appendJSON) },
			message{ID: json.RawMessage(`3`), Result: mustJSON(t, report)}},
		{"empty pull report", func(c *conn) error {
			return c.respond(json.RawMessage(`4`), fullDocumentDiagnosticReport{Kind: "full"}.appendJSON)
		}, message{ID: json.RawMessage(`4`), Result: mustJSON(t, fullDocumentDiagnosticReport{Kind: "full"})}},
		{"numeric id", func(c *conn) error { return c.respondJSON(json.RawMessage(`-12345678901234567890`), nil) },
			message{ID: json.RawMessage(`-12345678901234567890`), Result: json.RawMessage(`null`)}},
		{"escaped string id", func(c *conn) error { return c.respondJSON(json.RawMessage(`"<a&b>"`), nil) },
			message{ID: json.RawMessage(`"<a&b>"`), Result: json.RawMessage(`null`)}},
		{"U+2028 string id", func(c *conn) error { return c.respondJSON(json.RawMessage(u2028), nil) },
			message{ID: json.RawMessage(u2028), Result: json.RawMessage(`null`)}},
		{"spaced id", func(c *conn) error { return c.respondJSON(json.RawMessage("[1, 2]"), nil) },
			message{ID: json.RawMessage("[1, 2]"), Result: json.RawMessage(`null`)}},
		{"notification", func(c *conn) error { return c.notify("textDocument/publishDiagnostics", publish.appendJSON) },
			message{Method: "textDocument/publishDiagnostics", Params: mustJSON(t, publish)}},
		{"unversioned notification", func(c *conn) error { return c.notify("textDocument/publishDiagnostics", unversioned.appendJSON) },
			message{Method: "textDocument/publishDiagnostics", Params: mustJSON(t, unversioned)}},
		{"error with an id", func(c *conn) error {
			return c.respondError(json.RawMessage(`"7"`), codeMethodNotFound, "unhandled method <x>")
		},
			message{ID: json.RawMessage(`"7"`), Error: &respError{Code: codeMethodNotFound, Message: "unhandled method <x>"}}},
		{"error without an id", func(c *conn) error { return c.respondError(nil, codeParseError, "bad \"json\"") },
			message{ID: json.RawMessage(`null`), Error: &respError{Code: codeParseError, Message: `bad "json"`}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.send(newConn(strings.NewReader(""), &buf)); err != nil {
				t.Fatal(err)
			}
			want, err := marshalFrame(&tc.want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("frame differs from json.Marshal\ngot:  %q\nwant: %q", buf.Bytes(), want)
			}
		})
	}
}

// marshalFrame is the reference framing send must equal: the
// Content-Length header and json.Marshal of the message. The test
// client sends its requests with it.
func marshalFrame(m *message) ([]byte, error) {
	m.JSONRPC = "2.0"
	body, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	return append(fmt.Appendf(nil, "Content-Length: %d\r\n\r\n", len(body)), body...), nil
}

// TestRunAnswersUnparsableFrameWithNullID: a frame whose body is not
// JSON is answered with a parse error carrying "id": null, which
// JSON-RPC 2.0 requires when the request's id could not be read.
func TestRunAnswersUnparsableFrameWithNullID(t *testing.T) {
	var out bytes.Buffer
	if err := NewServer(Options{}).Run(strings.NewReader("Content-Length: 5\r\n\r\n{nope"), &out); err != nil {
		t.Fatal(err)
	}
	answer := out.String()
	m, err := newConn(&out, io.Discard).read()
	if err != nil {
		t.Fatal(err)
	}
	if string(m.ID) != "null" || m.Error == nil || m.Error.Code != codeParseError {
		t.Fatalf("answer = %q, want a parse error with \"id\":null", answer)
	}
}
