package bench

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one operation share Req.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 for a root span
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // filled by withSelfTimes when written out
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder
// records nothing, so untraced runs pay only a nil check per call.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// NewRecorder returns an empty recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span and returns its ID (0 on a nil recorder).
func (r *Recorder) Begin(name string, parent int, req int64) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Start: now, End: now})
	return len(r.spans)
}

// End closes the span Begin returned.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Add records an already-timed span, for intervals measured before the
// recorder could be told (an open-loop request's wait for its due time).
func (r *Recorder) Add(name string, parent int, req int64, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
	return len(r.spans)
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Total sums the durations of the spans named name, in seconds.
func (r *Recorder) Total(name string) float64 {
	var ns int64
	for _, s := range r.Spans() {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// withSelfTimes fills Self for every span: its duration minus the part of
// its interval that its children cover. Children that overlap each other
// (parallel calls) are counted once.
func withSelfTimes(spans []Span) []Span {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := append([]Span(nil), spans...)
	for i, s := range out {
		out[i].Self = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns how much of [lo, hi) the union of the spans' intervals
// covers.
func covered(lo, hi int64, spans []Span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}
