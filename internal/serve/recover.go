package serve

import (
	"log"
	"net/http"
	"runtime/debug"
)

// Recover wraps next with panic containment: a panicking handler (for
// example, a lint plugin crashing on one request's document) is
// converted into a 500 for that request while the process keeps
// serving everyone else. onPanic, when non-nil, observes the panic
// value (tests count them; production logs them). When nil, the panic
// and stack go to the standard logger.
//
// If the handler had already written response headers before
// panicking, the 500 cannot be sent; the recovery still contains the
// panic and the connection is simply dropped mid-response. Recover
// learns that from a StatusWriter: the one it is handed, when an
// outer layer (the gateway's response counter) already wraps the
// request in one, or else its own.
func Recover(next http.Handler, onPanic func(v any)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw, ok := w.(*StatusWriter)
		if !ok {
			sw = &StatusWriter{ResponseWriter: w}
		}
		defer func() {
			if v := recover(); v != nil {
				if v == http.ErrAbortHandler {
					// The server's own way to abort a response; let it
					// keep its meaning.
					panic(v)
				}
				if onPanic != nil {
					onPanic(v)
				} else {
					log.Printf("serve: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
				}
				if sw.Code == 0 {
					http.Error(sw, "internal error: the check crashed on this document", http.StatusInternalServerError)
				}
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// StatusWriter is the serving stack's one http.ResponseWriter wrapper:
// it records the status of the response written through it. Code is
// the first status written, a bare Write records 200, and Code stays 0
// while nothing has been written.
type StatusWriter struct {
	http.ResponseWriter
	Code int
}

// WriteHeader records code unless a status was already written.
func (w *StatusWriter) WriteHeader(code int) {
	if w.Code == 0 {
		w.Code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// Write records 200 unless a status was already written.
func (w *StatusWriter) Write(b []byte) (int, error) {
	if w.Code == 0 {
		w.Code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush passes through so streaming responses keep working behind the
// wrapper.
func (w *StatusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
