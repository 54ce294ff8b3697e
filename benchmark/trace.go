package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, taken from outside the program: the
// benchmark wraps the calls it makes (or, for the server's own stages, lays
// the durations the server reported inside the client's http span). Spans of
// one frame share Session and Frame; Parent 0 means no parent.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Frame   int    `json:"frame"`
	Session int    `json:"session"`
}

func (s span) durMs() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced and traced load generators are the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(name string, parent, session, frame int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Session: session, Frame: frame,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// open reserves an id for a span whose children finish before it does; close
// fills in its end time.
func (t *tracer) open(name string, parent, session, frame int, start time.Time) int {
	return t.add(name, parent, session, frame, start, start)
}

func (t *tracer) close(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].EndNs = end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations groups span durations (ms) by name.
func durations(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.durMs())
	}
	return out
}

// covered returns, per span id, how many nanoseconds of the span's interval
// its direct children cover (overlapping children are counted once, and only
// the part inside the parent counts).
func covered(spans []span) map[int]int64 {
	byID := make(map[int]span, len(spans))
	kids := make(map[int][]span)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(kids))
	for id, ks := range kids {
		p := byID[id]
		sort.Slice(ks, func(i, j int) bool { return ks[i].StartNs < ks[j].StartNs })
		var total int64
		edge := p.StartNs
		for _, k := range ks {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, p.EndNs)
			if hi > lo {
				total += hi - lo
				edge = hi
			}
		}
		out[id] = total
	}
	return out
}

// selfTimes is each span's duration minus the part its children cover.
func selfTimes(spans []span) map[int]int64 {
	cov := covered(spans)
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.EndNs - s.StartNs - cov[s.ID]
	}
	return out
}

// coverFrac is the median share of the named spans that their children
// cover (0 when there are none).
func coverFrac(spans []span, name string) float64 {
	cov := covered(spans)
	var fr []float64
	for _, s := range spans {
		if s.Name == name && s.EndNs > s.StartNs {
			fr = append(fr, float64(cov[s.ID])/float64(s.EndNs-s.StartNs))
		}
	}
	return median(fr)
}

// selfMs groups self times (ms) by span name.
func selfMs(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(self[s.ID])/1e6)
	}
	return out
}

// writeTrace writes the spans of one traced run to
// <dir>/trace_<workload>.json.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace_%s.json", workload))
	buf, err := json.Marshal(map[string]any{"workload": workload, "spans": spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf, 0o644)
}
