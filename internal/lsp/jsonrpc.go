package lsp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"weblint/internal/bufpool"
	"weblint/internal/render"
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
// and a mutex-guarded writer cover everything the server needs. The
// writer encodes each envelope by hand around a payload its caller
// encoded, so a pull's report is encoded once, straight into the frame.

// message is the wire shape of one JSON-RPC message. A request has
// Method and ID; a notification has Method only; a response has ID
// plus Result or Error. The server decodes incoming messages into it;
// outgoing ones are written by send, whose bytes the tests compare
// with json.Marshal of this struct.
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

// headerRoom is what a frame's buffer keeps in front of the body for
// the Content-Length header, whose digits are known only once the body
// is encoded: room for the longest length an int can hold.
const headerRoom = len("Content-Length: \r\n\r\n") + 20

// send writes one outbound message as one frame, in one Write: the
// Content-Length header, then the envelope {"jsonrpc":"2.0", "id" or
// "method", then member, whose value appendValue appends already
// encoded. The members come in the order json.Marshal gives message
// fields, and the bytes equal its encoding of the message, except that
// a response whose request id could not be read says "id":null, as
// JSON-RPC 2.0 requires, where json.Marshal would omit the id. The
// whole frame is built in one pooled buffer, so a payload is encoded
// once and the header needs no second buffer.
func (c *conn) send(id json.RawMessage, method, member string, appendValue func([]byte) []byte) error {
	buf := bufpool.Get()
	b := append(buf.AvailableBuffer(), make([]byte, headerRoom)...)
	b = append(b, `{"jsonrpc":"2.0"`...)
	if method == "" {
		b = appendID(append(b, `,"id":`...), id)
	} else {
		b = render.AppendJSONString(append(b, `,"method":`...), method)
	}
	b = append(append(append(b, ',', '"'), member...), '"', ':')
	b = append(appendValue(b), '}')

	var h [headerRoom]byte
	header := strconv.AppendInt(append(h[:0], "Content-Length: "...), int64(len(b)-headerRoom), 10)
	header = append(header, "\r\n\r\n"...)
	start := headerRoom - len(header)
	copy(b[start:], header)
	c.mu.Lock()
	_, err := c.out.Write(b[start:])
	c.mu.Unlock()
	// The buffer keeps whatever the frame grew it to, for the next one.
	*buf = *bytes.NewBuffer(b[:0])
	bufpool.Put(buf)
	return err
}

// appendID appends a response's id the way encoding/json writes a
// json.RawMessage: compacted, with <, >, &, U+2028 and U+2029 escaped.
// The id was decoded from the request, so it is valid JSON; an
// unreadable one is null.
func appendID(b []byte, id json.RawMessage) []byte {
	if len(id) == 0 {
		return append(b, "null"...)
	}
	for _, c := range id {
		switch c {
		case ' ', '\t', '\r', '\n', '<', '>', '&', 0xE2:
			// The bytes the two steps change: whitespace, markup, and
			// the lead byte U+2028 and U+2029 share.
			var compact, escaped bytes.Buffer
			if err := json.Compact(&compact, id); err != nil {
				return append(b, "null"...)
			}
			json.HTMLEscape(&escaped, compact.Bytes())
			return append(b, escaped.Bytes()...)
		}
	}
	return append(b, id...)
}

// respond sends a successful response whose result appendResult
// appends.
func (c *conn) respond(id json.RawMessage, appendResult func([]byte) []byte) error {
	return c.send(id, "", "result", appendResult)
}

// respondJSON sends a successful response whose result json.Marshal
// encodes: the rare answers (initialize, codeAction, shutdown). A nil
// result is JSON null, which the protocol requires to be present.
func (c *conn) respondJSON(id json.RawMessage, result any) error {
	raw, err := json.Marshal(result)
	if err != nil {
		return fmt.Errorf("lsp: marshaling result: %w", err)
	}
	return c.respond(id, func(b []byte) []byte { return append(b, raw...) })
}

// respondError sends an error response.
func (c *conn) respondError(id json.RawMessage, code int, msg string) error {
	return c.send(id, "", "error", func(b []byte) []byte {
		b = strconv.AppendInt(append(b, `{"code":`...), int64(code), 10)
		b = render.AppendJSONString(append(b, `,"message":`...), msg)
		return append(b, '}')
	})
}

// notify sends a notification whose params appendParams appends.
func (c *conn) notify(method string, appendParams func([]byte) []byte) error {
	return c.send(nil, method, "params", appendParams)
}
