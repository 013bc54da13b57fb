package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the id of the span that caused this one (0: a
// root). Times are nanoseconds since the tracer started. Reconstructed
// marks a child whose interval was not observed directly — the layer
// runs inside a call the benchmark cannot see into, so its duration was
// measured by calling the layer on its own and the span was placed inside
// its parent afterwards.
type span struct {
	ID            int    `json:"id"`
	Parent        int    `json:"parent"`
	Op            int    `json:"op"`
	Name          string `json:"name"`
	Start         int64  `json:"start"`
	End           int64  `json:"end"`
	Reconstructed bool   `json:"reconstructed,omitempty"`
}

// tracer keeps spans in memory until the run ends. It is safe for the
// concurrent clients of a served workload.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id; end closes it. A nil tracer is
// tracing off: both do nothing, so the untraced run shares the operation
// code and pays one nil check.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// reconstruct places a child of the given duration inside its parent,
// offset after the parent's start and clipped to the parent's interval.
func (t *tracer) reconstruct(name string, parent int, offset, dur time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	start := min(p.Start+int64(offset), p.End)
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: p.Op, Name: name,
		Start: start, End: min(start+int64(dur), p.End), Reconstructed: true})
	return id
}

// count is how many spans have been recorded; since returns a copy of the
// spans recorded after the first mark of them (0: all).
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) since(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval its direct children cover. Overlapping
// children are counted once and children are clipped to the parent, so
// self time is never negative.
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ lo, hi int64 }
	byID := make(map[int]span, len(spans))
	kids := make(map[int][]iv)
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, edge int64 = 0, s.Start
		for _, c := range ivs {
			if c.lo > edge {
				edge = c.lo
			}
			if c.hi > edge {
				covered += c.hi - edge
				edge = c.hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// selfMsByName groups span self times by span name, in milliseconds.
func selfMsByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(self[s.ID])/1e6)
	}
	return out
}

// shares turns per-layer times on one operation's blocking path into
// percentages of their sum.
func shares(layerMs map[string]float64) map[string]float64 {
	var total float64
	for _, v := range layerMs {
		total += v
	}
	out := make(map[string]float64, len(layerMs))
	for k, v := range layerMs {
		if total > 0 {
			out[k] = 100 * v / total
		}
	}
	return out
}
