package lsp

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"weblint/internal/corpus"
)

// BenchmarkPull times one textDocument/diagnostic pull as the server
// answers it: converting the session's findings to diagnostics,
// encoding the report and framing it into io.Discard. The pages are
// the editor workload's: corpus pages of 64 KiB, 256 KiB and 1 MiB at
// error rate 0.03.
func BenchmarkPull(b *testing.B) {
	for _, size := range []int{64 << 10, 256 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			s := NewServer(Options{DebounceDelay: -1})
			s.conn = newConn(strings.NewReader(""), io.Discard)
			uri := "untitled:bench.html"
			s.openDocument(TextDocumentItem{URI: uri, Version: 1, Text: corpus.GenerateSized(1, size, corpus.Uniform(0.03))})
			pull := &message{
				ID:     json.RawMessage(`1`),
				Method: "textDocument/diagnostic",
				Params: json.RawMessage(`{"textDocument":{"uri":"` + uri + `"}}`),
			}
			for b.Loop() {
				if err := s.dispatch(pull); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
