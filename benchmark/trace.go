package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary of the traced replica.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // offset from the tracer's creation
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the span that caused this one, -1 for a root
	Req    int    `json:"req"`    // the generator's request number
}

// tracer records spans in memory. The traced replica is driven by one
// closed-loop client, so at any instant the open spans form one stack —
// client round trip, handler, ingestor, sink, downstream handler — even
// though they run on different goroutines. The parent of a new span is
// therefore simply the innermost span still open: nesting by containment.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int // indices of the open spans, innermost last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index. req < 0 inherits the request
// number of the parent span.
func (t *tracer) begin(name string, req int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
		if req < 0 {
			req = t.spans[parent].Req
		}
	}
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id (and, defensively, anything opened inside it that was
// never closed).
func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = t.open[:i]
			return
		}
	}
}

// spanTotals is the aggregate of one span name.
type spanTotals struct {
	calls int
	total time.Duration // summed durations
	self  time.Duration // summed self times
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval its direct children cover; children that
// overlap each other are covered once, not twice.
func selfTimes(spans []span) map[string]spanTotals {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]spanTotals{}
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			from, to := spans[k].Start, spans[k].End
			if from < reach {
				from = reach
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				covered += to - from
				reach = to
			}
		}
		agg := out[s.Name]
		agg.calls++
		agg.total += time.Duration(s.End - s.Start)
		agg.self += time.Duration(s.End - s.Start - covered)
		out[s.Name] = agg
	}
	return out
}

// writeSpans dumps the spans of one traced run to benchmark/out.
func writeSpans(root, workload string, spans []span) error {
	dir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+workload+".json"), blob, 0o644)
}
