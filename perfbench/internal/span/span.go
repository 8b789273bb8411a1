// Package span records the traced run's spans in memory and derives each
// layer's self time from them.
package span

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed call. Times are nanoseconds since the recorder
// started; Parent is 0 for a span with no enclosing span.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// Recorder keeps spans in memory. The nil *Recorder records nothing, so
// the same code runs traced and untraced. It is not safe for concurrent
// use: the traced run is one goroutine.
type Recorder struct {
	t0    time.Time
	op    int
	spans []Span
	open  []int // indexes into spans of the spans not yet ended
}

// New starts a recorder.
func New() *Recorder { return &Recorder{t0: time.Now()} }

// SetOp tags the spans begun from now on with operation id op.
func (r *Recorder) SetOp(op int) {
	if r != nil {
		r.op = op
	}
}

// Do runs fn inside a span called name, a child of the innermost open
// span, and returns fn's duration (measured with or without a recorder).
func (r *Recorder) Do(name string, fn func()) time.Duration {
	if r == nil {
		t := time.Now()
		fn()
		return time.Since(t)
	}
	s := Span{ID: len(r.spans) + 1, Op: r.op, Name: name}
	if n := len(r.open); n > 0 {
		s.Parent = r.spans[r.open[n-1]].ID
	}
	idx := len(r.spans)
	r.open = append(r.open, idx)
	s.Start = int64(time.Since(r.t0))
	r.spans = append(r.spans, s)
	fn()
	end := int64(time.Since(r.t0))
	r.spans[idx].End = end
	r.open = r.open[:len(r.open)-1]
	return time.Duration(end - r.spans[idx].Start)
}

// Spans returns the recorded spans in start order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// WriteFile writes the spans as JSON lines.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
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

// SelfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover. Overlapping children count
// once, and a child's time outside its parent is not subtracted.
func SelfTimes(spans []Span) map[int]int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	var clipped [][2]int64
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	for i, iv := range clipped {
		switch {
		case i == 0:
			curA, curB = iv[0], iv[1]
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if len(clipped) > 0 {
		total += curB - curA
	}
	return total
}

// Agg sums the spans of one path.
type Agg struct {
	Count int
	Total int64 // ns
	Self  int64 // ns
}

// ByPath aggregates spans by their path: the names of the span's
// ancestors and its own, joined by "/", so a layer called from two places
// is counted apart.
func ByPath(spans []Span) map[string]Agg {
	self := SelfTimes(spans)
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	path := func(s Span) string {
		p := s.Name
		for s.Parent != 0 {
			s = byID[s.Parent]
			p = s.Name + "/" + p
		}
		return p
	}
	out := map[string]Agg{}
	for _, s := range spans {
		k := path(s)
		a := out[k]
		a.Count++
		a.Total += s.End - s.Start
		a.Self += self[s.ID]
		out[k] = a
	}
	return out
}
