package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code around a call into one of the system's public functions.
// Spans caused by one client operation share a trace ID; Parent names
// the span that made the call (0 for a root).
type span struct {
	Name   string `json:"name"`
	Trace  string `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the untraced path pays only a nil check.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active is an open span; end closes it. The zero value (from a nil
// tracer) is inert.
type active struct {
	t      *tracer
	name   string
	trace  string
	id     uint64
	parent uint64
	start  time.Time
}

func (t *tracer) begin(trace, name string, parent uint64) active {
	if t == nil {
		return active{}
	}
	return active{t: t, name: name, trace: trace, id: t.ids.Add(1), parent: parent, start: time.Now()}
}

// ID is the span's identifier, for parenting children (0 when inert).
func (a active) ID() uint64 { return a.id }

func (a active) end() {
	if a.t == nil {
		return
	}
	a.t.add(span{Name: a.name, Trace: a.trace, ID: a.id, Parent: a.parent,
		Start: int64(a.start.Sub(a.t.epoch)), End: int64(time.Since(a.t.epoch))})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as JSON, one per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// layerStat summarises every span of one name: how many, their total
// and self time (duration minus the part of it covered by child
// spans), and each duration for percentiles.
type layerStat struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
	durs   []float64
}

// medianMS is the median span duration in milliseconds.
func (l *layerStat) medianMS() float64 {
	if l == nil {
		return 0
	}
	return median(l.durs) * 1e3
}

// summarize computes per-name statistics over spans. A span's self
// time is its duration minus the union of its children's intervals
// clipped to it, so overlapping (parallel) children are not counted
// twice.
func summarize(spans []span) map[string]*layerStat {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerStat{}
	for _, s := range spans {
		l := out[s.Name]
		if l == nil {
			l = &layerStat{Name: s.Name}
			out[s.Name] = l
		}
		d := s.dur()
		l.Count++
		l.TotalS += d.Seconds()
		l.SelfS += (d - covered(s, children[s.ID])).Seconds()
		l.durs = append(l.durs, d.Seconds())
	}
	return out
}

// covered is the length of the union of kids' intervals inside s.
func covered(s span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return time.Duration(total)
}
