package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory: one per call into
// a layer's public entry point, with its parent span and the request
// (operation) it belongs to. A nil *tracer records nothing, so
// untraced runs pay one nil check per span.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

type span struct {
	name       string
	start, end time.Duration // since epoch
	parent     int           // index+1 of the parent span; 0 for a root
	req        int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 when t is nil).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, req: req})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// add records a span that has already ended.
func (t *tracer) add(name string, parent int, req int64, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: start.Sub(t.epoch), end: end.Sub(t.epoch), parent: parent, req: req})
	return len(t.spans)
}

// layerTime is the aggregate of every span with one name.
type layerTime struct {
	name  string
	count int
	total time.Duration
	self  time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of it its children cover; children of one
// parent may run concurrently, so their covered union is used, not
// their sum.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	type interval struct{ start, end time.Duration }
	children := make([][]interval, len(t.spans))
	for _, s := range t.spans {
		if s.parent > 0 && s.end >= 0 {
			children[s.parent-1] = append(children[s.parent-1], interval{s.start, s.end})
		}
	}
	byName := map[string]*layerTime{}
	var order []string
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		lt := byName[s.name]
		if lt == nil {
			lt = &layerTime{name: s.name}
			byName[s.name] = lt
			order = append(order, s.name)
		}
		dur := s.end - s.start
		kids := children[i]
		slices.SortFunc(kids, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
		covered, reach := time.Duration(0), s.start
		for _, k := range kids {
			lo, hi := max(k.start, reach), min(k.end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		lt.count++
		lt.total += dur
		lt.self += dur - covered
	}
	out := make([]layerTime, len(order))
	for i, name := range order {
		out[i] = *byName[name]
	}
	return out
}

// writeTo writes the spans in the Chrome trace-event format, which
// chrome://tracing and Perfetto open directly: one complete event per
// span, requests as threads, span and parent ids in args.
func (t *tracer) writeTo(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.req,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]int{"id": i + 1, "parent": s.parent},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.writeTo(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}
