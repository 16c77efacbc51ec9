package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHealthReadyThenDraining(t *testing.T) {
	h := &Health{}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("ready probe: %d %q", rec.Code, rec.Body.String())
	}

	h.SetDraining()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("draining probe: %d %q", rec.Code, rec.Body.String())
	}
}

func TestRecoverConvertsPanicTo500(t *testing.T) {
	var panics []any
	h := Recover(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/boom" {
			panic("check crashed")
		}
		io.WriteString(w, "fine")
	}), func(v any) { panics = append(panics, v) })

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic request status = %d", rec.Code)
	}
	if len(panics) != 1 || panics[0] != "check crashed" {
		t.Fatalf("panics observed: %v", panics)
	}

	// The wrapped handler still serves the next request.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/ok", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != "fine" {
		t.Fatalf("follow-up request: %d %q", rec.Code, rec.Body.String())
	}
}

func TestRecoverAfterPartialWrite(t *testing.T) {
	h := Recover(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "partial")
		panic("late crash")
	}), func(any) {})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	// Headers already went out as 200; the recovery must not try to
	// stack a 500 on top (httptest would tolerate it, a real conn
	// would log spam).
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "partial") {
		t.Fatalf("partial response mangled: %d %q", rec.Code, rec.Body.String())
	}
}

func TestRecoverPropagatesAbortHandler(t *testing.T) {
	h := Recover(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}), func(any) { t.Error("ErrAbortHandler must not be observed as a crash") })
	defer func() {
		if r := recover(); r != http.ErrAbortHandler {
			t.Fatalf("recover = %v, want ErrAbortHandler", r)
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
}

// TestStatusWriterRecordsFirstStatus: Code is 0 until something is
// written, a bare Write records 200, and the first status wins.
func TestStatusWriterRecordsFirstStatus(t *testing.T) {
	sw := &StatusWriter{ResponseWriter: httptest.NewRecorder()}
	if sw.Code != 0 {
		t.Fatalf("unwritten Code = %d, want 0", sw.Code)
	}
	io.WriteString(sw, "body")
	sw.WriteHeader(http.StatusTeapot)
	if sw.Code != http.StatusOK {
		t.Fatalf("bare Write recorded %d, want 200", sw.Code)
	}
	sw = &StatusWriter{ResponseWriter: httptest.NewRecorder()}
	sw.WriteHeader(http.StatusNotFound)
	sw.WriteHeader(http.StatusInternalServerError)
	if sw.Code != http.StatusNotFound {
		t.Fatalf("Code = %d, want the first status, 404", sw.Code)
	}
}

// TestRecoverReusesStatusWriter: handed a StatusWriter, Recover passes
// that writer on instead of wrapping the request a second time, and a
// contained panic's 500 is recorded in it.
func TestRecoverReusesStatusWriter(t *testing.T) {
	outer := &StatusWriter{ResponseWriter: httptest.NewRecorder()}
	var inner http.ResponseWriter
	h := Recover(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner = w
		panic("check crashed")
	}), func(any) {})
	h.ServeHTTP(outer, httptest.NewRequest(http.MethodGet, "/", nil))
	if inner != outer {
		t.Fatalf("handler got %T %p, want the StatusWriter Recover was handed", inner, inner)
	}
	if outer.Code != http.StatusInternalServerError {
		t.Fatalf("Code = %d, want the contained panic's 500", outer.Code)
	}
}
