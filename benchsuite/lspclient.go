package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"weblint/internal/lsp"
	"weblint/internal/warn"
)

// lspClient drives an lsp.Server over in-memory pipes the way an editor
// does: framed JSON-RPC down one pipe, and a reader goroutine that
// stamps each framed message with the time it was fully read, before
// parsing it.
type lspClient struct {
	w        *io.PipeWriter
	served   chan error    // the server's Run result
	readDone chan struct{} // closed when the reader has exited
	resp     chan frame    // the response to the one outstanding request
	pubs     chan frame    // publishDiagnostics notifications
	id       int
}

type frame struct {
	at   time.Time
	body []byte
}

// Wire shapes of the messages the client sends and reads.
type (
	lspPosition struct {
		Line      int `json:"line"`
		Character int `json:"character"`
	}
	lspRange struct {
		Start lspPosition `json:"start"`
		End   lspPosition `json:"end"`
	}
	lspChange struct {
		Range *lspRange `json:"range"`
		Text  string    `json:"text"`
	}
	lspDocument struct {
		URI     string `json:"uri"`
		Version int    `json:"version,omitempty"`
		Text    string `json:"text,omitempty"`
	}
	lspDiagnostic struct {
		Range   lspRange `json:"range"`
		Code    string   `json:"code"`
		Message string   `json:"message"`
	}
)

// publishQueue bounds how many unread publishDiagnostics the reader
// keeps; the debounced pushes arrive a few per second at most, and
// older ones are dropped rather than ever blocking the server.
const publishQueue = 256

// startLSP runs a server with opts on pipes and returns its client.
func startLSP(opts lsp.Options) *lspClient {
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	c := &lspClient{
		w:        inW,
		served:   make(chan error, 1),
		readDone: make(chan struct{}),
		resp:     make(chan frame, 1),
		pubs:     make(chan frame, publishQueue),
	}
	srv := lsp.NewServer(opts)
	go func() {
		err := srv.Run(inR, outW)
		inR.Close()
		outW.Close()
		c.served <- err
	}()
	go c.read(outR)
	return c
}

func (c *lspClient) read(r *io.PipeReader) {
	defer close(c.readDone)
	defer close(c.resp)
	defer r.Close()
	br := bufio.NewReaderSize(r, 64<<10)
	for {
		body, err := readFrame(br)
		if err != nil {
			return
		}
		f := frame{at: time.Now(), body: body}
		h, err := peek(body)
		if err != nil {
			continue
		}
		switch h.method {
		case "":
			c.resp <- f
		case "textDocument/publishDiagnostics":
			select {
			case c.pubs <- f:
			default:
			}
		}
	}
}

// readFrame reads one Content-Length framed message body.
func readFrame(br *bufio.Reader) ([]byte, error) {
	length := -1
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, err
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			break
		}
		if name, value, ok := strings.Cut(line, ":"); ok && strings.EqualFold(strings.TrimSpace(name), "Content-Length") {
			if length, err = strconv.Atoi(strings.TrimSpace(value)); err != nil {
				return nil, fmt.Errorf("bad Content-Length %q", value)
			}
		}
	}
	if length < 0 {
		return nil, errors.New("frame without Content-Length")
	}
	body := make([]byte, length)
	_, err := io.ReadFull(br, body)
	return body, err
}

// send frames one message; id 0 sends a notification.
func (c *lspClient) send(id int, method string, params any) error {
	msg := map[string]any{"jsonrpc": "2.0", "method": method, "params": params}
	if id != 0 {
		msg["id"] = id
	}
	body, err := json.Marshal(msg)
	if err != nil {
		return err
	}
	_, err = c.w.Write(append(fmt.Appendf(nil, "Content-Length: %d\r\n\r\n", len(body)), body...))
	return err
}

// call sends a request and returns the frame of its response.
func (c *lspClient) call(method string, params any) (frame, error) {
	c.id++
	if err := c.send(c.id, method, params); err != nil {
		return frame{}, err
	}
	select {
	case f, ok := <-c.resp:
		if !ok {
			return frame{}, errors.New("lsp server closed the stream")
		}
		if h, err := peek(f.body); err != nil || h.id != c.id || h.err {
			return f, fmt.Errorf("%s: bad response %.200s", method, f.body)
		}
		return f, nil
	case <-time.After(30 * time.Second):
		return frame{}, fmt.Errorf("%s: no response", method)
	}
}

func (c *lspClient) initialize() error {
	_, err := c.call("initialize", map[string]any{})
	if err == nil {
		err = c.send(0, "initialized", map[string]any{})
	}
	return err
}

// open sends didOpen and waits for the diagnostics published for that
// version; it returns them and the time from sending to their arrival.
func (c *lspClient) open(uri string, version int, text string) ([]lspDiagnostic, time.Duration, error) {
	// Older pushes must not crowd out the one awaited.
	for len(c.pubs) > 0 {
		<-c.pubs
	}
	t0 := time.Now()
	if err := c.send(0, "textDocument/didOpen", map[string]any{
		"textDocument": lspDocument{URI: uri, Version: version, Text: text},
	}); err != nil {
		return nil, 0, err
	}
	got, err := c.awaitPublished(map[string]int{uri: version})
	if err != nil {
		return nil, 0, err
	}
	return got[uri].diags, got[uri].at.Sub(t0), nil
}

// published is one publishDiagnostics notification.
type published struct {
	at    time.Time
	diags []lspDiagnostic
}

// awaitPublished waits until diagnostics have been published for every
// document of want at the version want gives it, and returns them by
// URI. Publications of other versions are read and dropped.
func (c *lspClient) awaitPublished(want map[string]int) (map[string]published, error) {
	got := map[string]published{}
	timeout := time.After(30 * time.Second)
	for len(got) < len(want) {
		select {
		case f := <-c.pubs:
			var m struct {
				Params struct {
					URI         string          `json:"uri"`
					Version     int             `json:"version"`
					Diagnostics []lspDiagnostic `json:"diagnostics"`
				} `json:"params"`
			}
			if err := json.Unmarshal(f.body, &m); err != nil {
				return nil, err
			}
			if p := m.Params; want[p.URI] == p.Version && p.Version != 0 {
				got[p.URI] = published{f.at, p.Diagnostics}
			}
		case <-timeout:
			return nil, fmt.Errorf("no diagnostics published for %v within 30s (got %d of %d)", want, len(got), len(want))
		}
	}
	return got, nil
}

func (c *lspClient) closeDoc(uri string) error {
	return c.send(0, "textDocument/didClose", map[string]any{"textDocument": lspDocument{URI: uri}})
}

// change sends one didChange carrying ch.
func (c *lspClient) change(uri string, version int, ch change) error {
	return c.send(0, "textDocument/didChange", map[string]any{
		"textDocument": lspDocument{URI: uri, Version: version},
		"contentChanges": []lspChange{{
			Range: &lspRange{
				Start: lspPosition{ch.startLine, ch.startCol},
				End:   lspPosition{ch.endLine, ch.endCol},
			},
			Text: ch.span.Text,
		}},
	})
}

// pull requests the document's diagnostics (LSP 3.17 pull model).
func (c *lspClient) pull(uri string) (frame, error) {
	return c.call("textDocument/diagnostic", map[string]any{"textDocument": lspDocument{URI: uri}})
}

// head is what the client needs from the front of a message: its id,
// its method, whether it is an error response, and a result report's
// kind. Members after those are never scanned, so routing and checking
// a large pull response costs time in proportion to its header, not
// to its diagnostics.
type head struct {
	id     int
	method string
	err    bool
	kind   string
}

func peek(body []byte) (h head, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return h, fmt.Errorf("not a JSON-RPC message: %.80s", body)
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return h, err
		}
		switch key {
		case "id":
			err = dec.Decode(&h.id)
		case "method":
			return h, dec.Decode(&h.method)
		case "error":
			h.err = true
			return h, nil
		case "result":
			return h, peekKind(dec, &h)
		default:
			err = dec.Decode(new(json.RawMessage))
		}
		if err != nil {
			return h, err
		}
	}
	return h, nil
}

// peekKind reads the kind member of a result object, skipping the
// members before it.
func peekKind(dec *json.Decoder, h *head) error {
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return err
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return err
		}
		if key == "kind" {
			return dec.Decode(&h.kind)
		}
		if err := dec.Decode(new(json.RawMessage)); err != nil {
			return err
		}
	}
	return nil
}

// pulledDiagnostics decodes a pull response's full report.
func pulledDiagnostics(f frame) ([]lspDiagnostic, error) {
	var r struct {
		Result struct {
			Kind  string          `json:"kind"`
			Items []lspDiagnostic `json:"items"`
		} `json:"result"`
	}
	if err := json.Unmarshal(f.body, &r); err != nil {
		return nil, err
	}
	if r.Result.Kind != "full" {
		return nil, fmt.Errorf("report kind %q", r.Result.Kind)
	}
	return r.Result.Items, nil
}

// sameDiagnostics reports whether diags are what a from-scratch lint
// found: the same findings, in order, on the same lines.
func sameDiagnostics(diags []lspDiagnostic, want []warn.Message) bool {
	if len(diags) != len(want) {
		return false
	}
	for i, d := range diags {
		m := want[i]
		if d.Code != m.ID || d.Message != m.Text || d.Range.Start.Line != max(m.Line-1, 0) {
			return false
		}
	}
	return true
}

// close shuts the server down and waits for it and the reader to exit.
func (c *lspClient) close() error {
	_, err := c.call("shutdown", nil)
	if serr := c.send(0, "exit", nil); err == nil {
		err = serr
	}
	c.w.Close()
	if rerr := <-c.served; err == nil {
		err = rerr
	}
	<-c.readDone
	return err
}
