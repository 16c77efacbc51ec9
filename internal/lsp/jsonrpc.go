package lsp

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// jsonrpc.go implements the LSP base protocol by hand: JSON-RPC 2.0
// messages framed by MIME-style headers over a byte stream. Each
// message is
//
//	Content-Length: <N>\r\n
//	\r\n
//	<N bytes of JSON>
//
// No external dependency — the framing is simple enough that a reader
// and a mutex-guarded writer cover everything the server needs.

// message is the wire shape of one JSON-RPC message, incoming or
// outgoing. A request has Method and ID; a notification has Method
// only; a response has ID plus Result or Error.
type message struct {
	JSONRPC string          `json:"jsonrpc"`
	ID      json.RawMessage `json:"id,omitempty"`
	Method  string          `json:"method,omitempty"`
	Params  json.RawMessage `json:"params,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   *respError      `json:"error,omitempty"`
}

// respError is a JSON-RPC error object.
type respError struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

// JSON-RPC / LSP error codes the server uses.
const (
	codeParseError     = -32700
	codeInvalidRequest = -32600
	codeMethodNotFound = -32601
	codeInvalidParams  = -32602
)

// maxFrame caps a message's Content-Length. The header states the
// length before any of the body arrives, so without a cap one header
// could make the server allocate whatever it names. 16 MiB is sixteen
// times the largest page (1 MiB) the editor benchmark opens.
const maxFrame = 16 << 20

// conn frames messages over a reader/writer pair. Reads are driven by
// one goroutine (the serve loop); writes are mutex-guarded because
// debounced lint goroutines publish diagnostics concurrently with
// responses.
type conn struct {
	in  *bufio.Reader
	mu  sync.Mutex
	out io.Writer
}

func newConn(r io.Reader, w io.Writer) *conn {
	return &conn{in: bufio.NewReader(r), out: w}
}

// read returns the next framed message. io.EOF (possibly wrapped)
// reports a closed input. A Content-Length over maxFrame is an error
// naming the cap, returned before anything is allocated for the body.
func (c *conn) read() (*message, error) {
	length := -1
	for {
		line, err := c.in.ReadString('\n')
		if err != nil {
			if err == io.EOF && line == "" {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("lsp: reading header: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			break // end of headers
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("lsp: malformed header %q", line)
		}
		switch strings.ToLower(strings.TrimSpace(name)) {
		case "content-length":
			n, err := strconv.Atoi(strings.TrimSpace(value))
			if err != nil || n < 0 {
				return nil, fmt.Errorf("lsp: bad Content-Length %q", value)
			}
			if n > maxFrame {
				return nil, fmt.Errorf("lsp: Content-Length %d exceeds the %d-byte message cap", n, maxFrame)
			}
			length = n
		case "content-type":
			// Accepted and ignored: the only defined value is a UTF-8
			// JSON-RPC type.
		default:
			// Unknown headers are ignored for forward compatibility.
		}
	}
	if length < 0 {
		return nil, fmt.Errorf("lsp: missing Content-Length header")
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(c.in, body); err != nil {
		return nil, fmt.Errorf("lsp: reading %d-byte body: %w", length, err)
	}
	var m message
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, &protocolError{code: codeParseError, msg: err.Error()}
	}
	return &m, nil
}

// protocolError is a malformed-message error the serve loop answers
// with a JSON-RPC error response instead of dying.
type protocolError struct {
	code int
	msg  string
}

func (e *protocolError) Error() string { return e.msg }

// write frames and sends one message.
func (c *conn) write(m *message) error {
	m.JSONRPC = "2.0"
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("lsp: marshaling message: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := fmt.Fprintf(c.out, "Content-Length: %d\r\n\r\n", len(body)); err != nil {
		return err
	}
	_, err = c.out.Write(body)
	return err
}

// respond sends a successful response. A nil result marshals as JSON
// null, which the protocol requires to be present.
func (c *conn) respond(id json.RawMessage, result any) error {
	raw, err := json.Marshal(result)
	if err != nil {
		return fmt.Errorf("lsp: marshaling result: %w", err)
	}
	return c.write(&message{ID: id, Result: raw})
}

// respondError sends an error response.
func (c *conn) respondError(id json.RawMessage, code int, msg string) error {
	return c.write(&message{ID: id, Error: &respError{Code: code, Message: msg}})
}

// notify sends a notification.
func (c *conn) notify(method string, params any) error {
	raw, err := json.Marshal(params)
	if err != nil {
		return fmt.Errorf("lsp: marshaling params: %w", err)
	}
	return c.write(&message{Method: method, Params: raw})
}
