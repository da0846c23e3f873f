package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"spacecdn/internal/telemetry"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Spans of one request share req; parent indexes the
// span that caused this one (-1 for a root).
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int
	req        int64
	tid        int
}

// tracer keeps spans in memory for the whole run; they are written once at
// exit. A nil *tracer records nothing, which is how tracing is switched off.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string, parent int, req int64, tid int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, req: req, tid: tid})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes the span opened as i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	if t == nil || i < 0 {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[i].end = now
	d := now - t.spans[i].start
	t.mu.Unlock()
	return d
}

// layerTimes aggregates spans by name: how many closed, their summed
// duration, and their summed self time.
type layerTimes struct {
	count      int
	total, own time.Duration
}

// selfTimes computes, per span name, the summed self time: each span's
// duration minus the part of its interval its children cover. Children may
// overlap each other; their union is what is subtracted.
func selfTimes(spans []span) map[string]layerTimes {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	out := make(map[string]layerTimes)
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		d := s.end - s.start
		covered := unionWithin(spans, kids[i], s.start, s.end)
		lt := out[s.name]
		lt.count++
		lt.total += d
		lt.own += d - covered
		out[s.name] = lt
	}
	return out
}

// unionWithin returns the length of the union of the given spans'
// intervals, clipped to [lo, hi].
func unionWithin(spans []span, idx []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range idx {
		c := spans[k]
		if c.end < 0 {
			continue
		}
		a, b := max(c.start, lo), min(c.end, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			sum += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		sum += curB - curA
	}
	return sum
}

// writePerfetto writes the spans as Chrome trace-event JSON, the format the
// Perfetto UI (ui.perfetto.dev) and chrome://tracing open — the same viewer
// as `spacecdn -trace-out`. One lane per recording goroutine; wall-clock
// timestamps.
func writePerfetto(path, process string, spans []span) error {
	events := []telemetry.TraceEvent{{
		Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]interface{}{"name": process},
	}}
	for _, s := range spans {
		if s.end < 0 {
			continue
		}
		args := map[string]interface{}{"req": s.req}
		if s.parent >= 0 {
			args["parent"] = spans[s.parent].name
		}
		events = append(events, telemetry.TraceEvent{
			Name: s.name, Cat: "perfbench", Ph: "X",
			TS: usOf(s.start), Dur: usOf(s.end - s.start),
			PID: 1, TID: s.tid, Args: args,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(telemetry.PerfettoTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	return nil
}
