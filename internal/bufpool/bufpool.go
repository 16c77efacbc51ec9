// Package bufpool pools whole-document read buffers for the intake
// paths: lint.CheckFile, the batch engine's file and URL reads (which
// the CLI and sitewalk go through), and the gateway's upload and
// fetch-by-URL handlers.
// Every one of those used to pay a fresh io.ReadAll allocation (and
// growth copies) per request; with the pool a warm server reads each
// document into recycled memory. The LSP server builds each outbound
// frame in a pooled buffer too, so a pull's report, close to 200 KB
// on a 1 MiB page, is encoded into recycled memory.
package bufpool

import (
	"bytes"
	"sync"
)

// maxPooled is the largest buffer capacity the pool retains. Oversized
// documents are served correctly but their buffers are dropped on Put,
// so one pathological upload cannot pin megabytes in an idle pool.
const maxPooled = 4 << 20

var pool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Get returns an empty buffer, recycled when possible.
func Get() *bytes.Buffer {
	b := pool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

// Put returns buf to the pool. Callers must not touch buf (or byte
// slices viewing into it) afterwards.
func Put(buf *bytes.Buffer) {
	if buf == nil || buf.Cap() > maxPooled {
		return
	}
	pool.Put(buf)
}
