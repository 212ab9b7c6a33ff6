package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"gossip/internal/phone"
)

// span is one timed call across a layer boundary. Spans of one operation
// (a cell repetition, a request, a cluster run) share Op; Parent is the
// span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans and boundary counts in memory until the run ends.
// A nil tracer records nothing, so a workload has one code path for its
// traced and untraced passes.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16), counts: map[string]float64{}}
}

// start opens a span and returns its id; end closes it.
func (t *tracer) start(parent int, name, tag string, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Tag: tag, Op: op, Start: int64(now)})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = int64(now)
	t.mu.Unlock()
}

// count adds to a boundary counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// total sums the durations of the spans with the given name (and tag, if
// non-empty), in seconds, and counts them.
func (t *tracer) total(name, tag string) (seconds float64, n int) {
	for _, s := range t.spans {
		if s.Name == name && (tag == "" || s.Tag == tag) {
			seconds += s.dur().Seconds()
			n++
		}
	}
	return seconds, n
}

// layerShares returns each layer's self time — a span's duration minus
// the part of it its child spans cover, summed by the layer its name
// starts with — as a fraction of all self time (which, for a workload
// driven from one goroutine, is the traced wall time).
func (t *tracer) layerShares() map[string]float64 {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self, sum := map[string]float64{}, 0.0
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] += float64(s.End - s.Start - covered)
		sum += float64(s.End - s.Start - covered)
	}
	if sum > 0 {
		for k := range self {
			self[k] /= sum
		}
	}
	return self
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedTransport is the phone.Transport decorator the traced passes hand
// to core.*Over: one span and one set of counts per Step, which also
// covers the machine callbacks and tracker transfers the step invokes.
type timedTransport struct {
	phone.Transport
	tr     *tracer
	parent int
	name   string
	op     int
}

func (t *timedTransport) Step(step int32) phone.StepTally {
	id := t.tr.start(t.parent, t.name, "", t.op)
	tl := t.Transport.Step(step)
	t.tr.end(id)
	t.tr.count(t.name+".nodes", float64(t.N()))
	t.tr.count("phone.opened", float64(tl.Opened))
	return tl
}
