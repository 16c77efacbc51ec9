package gateway

import (
	"bytes"
	"errors"
	"mime"
	"net/http"
	"net/url"
	"strings"

	"weblint/internal/bytestr"
)

// form.go reads an urlencoded submission. r.ParseForm would read the
// body with io.ReadAll, copy it into a string, and build every value a
// byte at a time; the pasted document, nearly all of the body, would
// be copied three times. readForm reads the body once into a pooled
// buffer and decodes each pair in place, so the paste is never copied.

// errSemicolon is url.ParseQuery's error for a pair holding a ';'.
var errSemicolon = errors.New("invalid semicolon separator in query")

// readForm parses a submission's form fields. A multipart body is left
// unread for extractInput to stream. A urlencoded body is read into
// buf and decoded in place into r.PostForm; r.ParseForm then merges the
// URL query after it into r.Form, as it does for a body it read
// itself. Any other body takes r.ParseForm. Either way r.PostForm and
// r.Form hold what r.ParseForm alone would leave, and the error is
// non-nil exactly when r.ParseForm would fail.
//
// The html= values are views of buf: they are valid until buf is
// recycled, at the end of the request, and must not outlive it. Every
// other key and value is a copy.
func readForm(r *http.Request, buf *bytes.Buffer) error {
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "multipart/form-data") {
		return nil
	}
	// net/http reads the media type the same way, and parses the body
	// even when a parameter is malformed, failing afterwards.
	mt, _, err := mime.ParseMediaType(ct)
	if mt != "application/x-www-form-urlencoded" {
		return r.ParseForm()
	}
	vs := url.Values{}
	if _, rerr := buf.ReadFrom(r.Body); rerr != nil {
		// As in net/http, a body that fails to read adds no values.
		if err == nil {
			err = rerr
		}
	} else if derr := decodeForm(vs, buf.Bytes()); err == nil {
		err = derr
	}
	r.PostForm = vs
	if qerr := r.ParseForm(); err == nil {
		err = qerr
	}
	return err
}

// decodeForm adds the pairs of the urlencoded body b to vs as
// url.ParseQuery does, overwriting b: each key and value is decoded in
// place, which never lengthens it. Like ParseQuery it skips a pair
// that holds a ';' or a bad escape and goes on, and returns the first
// escape error, or else the last semicolon error.
func decodeForm(vs url.Values, b []byte) error {
	var err error
	for len(b) > 0 {
		var pair []byte
		pair, b, _ = bytes.Cut(b, []byte("&"))
		if bytes.IndexByte(pair, ';') >= 0 {
			err = errSemicolon
			continue
		}
		if len(pair) == 0 {
			continue
		}
		key, value, _ := bytes.Cut(pair, []byte("="))
		key, kerr := unescape(key)
		if kerr != nil {
			if err == nil {
				err = kerr
			}
			continue
		}
		value, verr := unescape(value)
		if verr != nil {
			if err == nil {
				err = verr
			}
			continue
		}
		if string(key) == "html" {
			vs["html"] = append(vs["html"], bytestr.String(value))
		} else {
			k := string(key)
			vs[k] = append(vs[k], string(value))
		}
	}
	return err
}

// unescape decodes b in place as url.QueryUnescape decodes a string —
// "%XX" to its byte, '+' to a space — and returns the decoded prefix
// of b. A '%' not followed by two hex digits fails with the
// url.EscapeError QueryUnescape returns, and leaves b partly decoded.
func unescape(b []byte) ([]byte, error) {
	j := 0
	for i := 0; i < len(b); j++ {
		c := b[i]
		if c != '%' {
			// A table, not a second branch: '+' is as common as '%'
			// in an encoded page, and as hard to predict.
			b[j] = plusToSpace[c]
			i++
			continue
		}
		if i+2 >= len(b) || !ishex(b[i+1]) || !ishex(b[i+2]) {
			return nil, url.EscapeError(b[i:min(i+3, len(b))])
		}
		b[j] = unhex(b[i+1])<<4 | unhex(b[i+2])
		i += 3
	}
	return b[:j], nil
}

// plusToSpace maps '+' to a space and every other byte to itself.
var plusToSpace = func() (t [256]byte) {
	for i := range t {
		t[i] = byte(i)
	}
	t['+'] = ' '
	return t
}()

func ishex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func unhex(c byte) byte {
	switch {
	case c <= '9':
		return c - '0'
	case c <= 'F':
		return c - 'A' + 10
	}
	return c - 'a' + 10
}
