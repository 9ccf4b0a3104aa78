package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself carries no spans). Spans of one request
// — one log batch, one report request — share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`   // "<layer>.<operation>"
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"` // rows or bytes the call handled
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and costs one branch per call, which is what the
// spans-off pass of the replay measures against. Single
// goroutine only.
type tracer struct {
	on    bool
	epoch time.Time
	spans []*span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// start opens a span under parent (nil for a root) and returns it; end
// closes it. Both are no-ops on a disabled tracer.
func (t *tracer) start(parent *span, name, req string) *span {
	if !t.on {
		return nil
	}
	s := &span{ID: len(t.spans) + 1, Name: name, Req: req, Start: int64(time.Since(t.epoch))}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.spans = append(t.spans, s)
	return s
}

func (t *tracer) end(s *span, n int) {
	if s == nil {
		return
	}
	s.End = int64(time.Since(t.epoch))
	s.N = n
}

// total sums the durations and the N of every span called name, and
// counts them.
func (t *tracer) total(name string) (d time.Duration, count, n int) {
	for _, s := range t.spans {
		if s.Name == name {
			d += s.dur()
			count++
			n += s.N
		}
	}
	return d, count, n
}

// durations lists the durations of every span called name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children.
func selfTimes(spans []*span) map[int]time.Duration {
	kids := map[int][]*span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered int64
		cur, curEnd := int64(-1), int64(-1)
		for _, c := range cs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// layerSelf sums self time by layer, the span name's prefix before the
// first dot.
func layerSelf(spans []*span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += self[s.ID].Seconds()
	}
	return out
}

// writeSpans stores the spans and the per-layer self times as JSON.
func (t *tracer) writeSpans(path string) error {
	doc := struct {
		LayerSelfS map[string]float64 `json:"layer_self_s"`
		Spans      []*span            `json:"spans"`
	}{layerSelf(t.spans), t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
