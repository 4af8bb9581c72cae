package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the call (nothing inside the program under test is
// instrumented). Spans of one op share its op id; parent is the index of the
// causing span, -1 for a root.
type span struct {
	name       string
	op         int
	parent     int
	tid        int
	start, end time.Duration // since the tracer's origin
	// scale converts the span's wall time into reference-machine time (the
	// calibration factor of the segment or probe it ran in).
	scale float64
	// n and bytes are the work the span covered (rows, pairs, bytes), so
	// that per-unit ratios are taken where the work happens.
	n, bytes int64
}

func (s span) dur() time.Duration { return s.end - s.start }

// normMS is the span's duration at reference machine speed, in ms.
func (s span) normMS() float64 { return ms(s.dur()) * s.scale }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tracer keeps spans in memory; they are written out when the run ends. A
// nil tracer records nothing, which is how the untraced pass runs the same
// code paths.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent, tid int, scale float64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, tid: tid, scale: scale})
	id := len(t.spans) - 1
	t.spans[id].start = time.Since(t.origin)
	return id
}

// end closes span id, attaching the work it covered.
func (t *tracer) end(id int, n, bytes int64) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end, t.spans[id].n, t.spans[id].bytes = now, n, bytes
}

// byName returns the closed spans with the given name.
func (t *tracer) byName(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.name == name && s.end > 0 {
			out = append(out, s)
		}
	}
	return out
}

// normP50 is the median reference-speed duration, in ms, of spans by name.
func (t *tracer) normP50(name string) float64 {
	var xs []float64
	for _, s := range t.byName(name) {
		xs = append(xs, s.normMS())
	}
	return median(xs)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children are counted
// once, children are clipped to the parent).
func selfTimes(spans []span) []time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make([][]iv, len(spans))
	for _, s := range spans {
		if s.parent >= 0 && s.parent < len(spans) {
			p := spans[s.parent]
			lo, hi := max(s.start, p.start), min(s.end, p.end)
			if hi > lo {
				kids[s.parent] = append(kids[s.parent], iv{lo, hi})
			}
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach time.Duration
		reach = s.start
		for _, k := range ivs {
			if k.hi <= reach {
				continue
			}
			covered += k.hi - max(k.lo, reach)
			reach = k.hi
		}
		self[i] = s.dur() - covered
	}
	return self
}

// writeChrome writes the spans as Chrome trace-event JSON (open it in
// chrome://tracing or https://ui.perfetto.dev).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	self := selfTimes(t.spans)
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.end == 0 {
			continue
		}
		cat, _, _ := strings.Cut(s.name, ".")
		events = append(events, event{
			Name: s.name, Cat: cat, Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3,
			PID: 1, TID: s.tid,
			Args: map[string]any{
				"id": i, "op": s.op, "parent": s.parent, "self_us": float64(self[i]) / 1e3,
				"norm_scale": s.scale, "n": s.n, "bytes": s.bytes,
			},
		})
	}
	t.mu.Unlock()
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
