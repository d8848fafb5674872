package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// maxSpans bounds the spans one traced run keeps in memory. Coarse spans
// (scans, shards, epochs) always fit; per-pair and per-request spans past
// the cap are counted but not kept, so a long campaign cannot grow the
// trace without bound.
const maxSpans = 1 << 18

// span is one timed interval at a layer boundary. Spans of one pair, shard
// or request share Group; Parent names the span that caused this one.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Group  string `json:"group,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced run passes nil and pays one nil check per boundary.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	nextID  uint64
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so a parent can be named before it ends.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// add records a finished span under a reserved id (0 reserves one) and
// returns the id.
func (t *tracer) add(id, parent uint64, group, name string, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.nextID++
		id = t.nextID
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return id
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Group: group, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return id
}

// write dumps the spans as JSON lines to path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums each span name's self time: its duration minus the part
// of it that its child spans cover. Children of one parent may overlap
// (two workers under one scan), so their covered time is the union of
// their intervals, clipped to the parent.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		covered := coveredNs(s, children[s.ID])
		self[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

func coveredNs(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// summary is the human-readable self-time table of a traced run.
func (t *tracer) summary() []string {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	lines := make([]string, 0, len(names)+1)
	for _, n := range names {
		lines = append(lines, fmt.Sprintf("  self %-18s %10.1f ms", n, ms(self[n])))
	}
	t.mu.Lock()
	lines = append(lines, fmt.Sprintf("  %d spans kept, %d dropped past the cap", len(t.spans), t.dropped))
	t.mu.Unlock()
	return lines
}
