package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own call.
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int           // index of the enclosing span, -1 for a root
	req        int64         // serve-mix request id, -1 elsewhere
}

// tracer keeps every span of a run in memory until the run ends. A nil
// *tracer records nothing, so untraced runs share the traced code path.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, req: -1})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// add records a finished span whose name is only known after the call.
func (t *tracer) add(name string, start, end time.Time, parent int, req int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: start.Sub(t.origin), end: end.Sub(t.origin), parent: parent, req: req})
	t.mu.Unlock()
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	count       int
	total, self time.Duration
	durations   []float64 // milliseconds, one per span
}

func (s spanStats) meanMS() float64 {
	if s.count == 0 {
		return 0
	}
	return ms(s.total) / float64(s.count)
}

// stats aggregates spans by name. A span's self time is its duration
// minus the part of it its children cover.
func (t *tracer) stats() map[string]*spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]*spanStats)
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		st := out[s.name]
		if st == nil {
			st = &spanStats{}
			out[s.name] = st
		}
		d := s.end - s.start
		st.count++
		st.total += d
		st.self += d - t.covered(s, children[i])
		st.durations = append(st.durations, ms(d))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func (t *tracer) covered(parent span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		c := t.spans[k]
		lo, hi := max(c.start, parent.start), min(c.end, parent.end)
		if c.end >= 0 && hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// writeSummary prints one line per span name: count, total and self
// milliseconds. Traced runs write it to standard error when they end.
func writeSummary(w io.Writer, st map[string]*spanStats) {
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-34s %9s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		s := st[n]
		fmt.Fprintf(w, "%-34s %9d %12.3f %12.3f\n", n, s.count, ms(s.total), ms(s.self))
	}
}
