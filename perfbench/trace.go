package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one round, ingest phase
// or writer batch share a Group; Parent is 0 for a root span.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Group  int64         `json:"group"`
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory until dump. A nil *recorder is the
// untraced mode: every method is a no-op, so call sites need no branches.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// spanRef is an open span; end closes it. Span ids are their index in
// the recorder plus one, so the no-op span's id is 0.
type spanRef struct {
	r   *recorder
	idx int
}

func (s spanRef) id() int64 {
	if s.r == nil {
		return 0
	}
	return int64(s.idx + 1)
}

// begin opens a span under parent (0 for a root).
func (r *recorder) begin(name, layer string, parent, group int64) spanRef {
	if r == nil {
		return spanRef{}
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: int64(len(r.spans) + 1), Parent: parent, Group: group,
		Name: name, Layer: layer, Start: now, End: -1,
	})
	return spanRef{r, len(r.spans) - 1}
}

func (s spanRef) end() {
	if s.r == nil {
		return
	}
	now := time.Since(s.r.epoch)
	s.r.mu.Lock()
	s.r.spans[s.idx].End = now
	s.r.mu.Unlock()
}

// add records a closed span with known bounds (GC pauses read back from
// the runtime).
func (r *recorder) add(name, layer string, parent, group int64, start, end time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: int64(len(r.spans) + 1), Parent: parent, Group: group,
		Name: name, Layer: layer, Start: start, End: end,
	})
}

// gcWatch turns the runtime's record of stop-the-world GC pauses into
// runtime-layer spans.
type gcWatch struct{ numGC uint32 }

func (r *recorder) watchGC() gcWatch {
	if r == nil {
		return gcWatch{}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcWatch{m.NumGC}
}

// pauses records every GC pause since w as a span of group, parented to
// the innermost span of that group enclosing the pause (or parent when
// none does), and returns the updated watch.
func (r *recorder) pauses(w gcWatch, parent, group int64) gcWatch {
	if r == nil {
		return w
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	n := m.NumGC - w.numGC
	if n > uint32(len(m.PauseNs)) {
		n = uint32(len(m.PauseNs))
	}
	epoch := r.epoch.UnixNano()
	for k := uint32(0); k < n; k++ {
		i := (m.NumGC - 1 - k) % uint32(len(m.PauseNs))
		end := time.Duration(int64(m.PauseEnd[i]) - epoch)
		start := end - time.Duration(m.PauseNs[i])
		r.add("gc.pause", "runtime", r.enclosing(parent, group, start, end), group, start, end)
	}
	return gcWatch{m.NumGC}
}

// enclosing finds the innermost closed span of group containing
// [start, end), defaulting to fallback.
func (r *recorder) enclosing(fallback, group int64, start, end time.Duration) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	best, bestLen := fallback, time.Duration(-1)
	for _, s := range r.spans {
		if s.Group != group || s.End < 0 || s.Start > start || s.End < end {
			continue
		}
		if l := s.End - s.Start; bestLen < 0 || l < bestLen {
			best, bestLen = s.ID, l
		}
	}
	return best
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's duration minus the part covered by its
// children. Children may overlap each other (concurrent calls, a GC pause
// inside a query); the covered part is the union of their intervals,
// clipped to the parent.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][][2]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi).
func covered(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	clipped := make([][2]time.Duration, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]time.Duration{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total time.Duration
	curA, curB := time.Duration(0), time.Duration(-1)
	for _, iv := range clipped {
		if iv[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = iv[0], iv[1]
		} else if iv[1] > curB {
			curB = iv[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Layer string
	Spans int
	Total time.Duration
	Self  time.Duration
}

// layerTable sums span durations and self times per layer, in the order
// of layers; spans of unlisted layers are appended.
func layerTable(spans []span, layers []string) []layerTime {
	self := selfTimes(spans)
	rows := map[string]*layerTime{}
	order := append([]string(nil), layers...)
	for _, l := range layers {
		rows[l] = &layerTime{Layer: l}
	}
	for _, s := range spans {
		row := rows[s.Layer]
		if row == nil {
			row = &layerTime{Layer: s.Layer}
			rows[s.Layer] = row
			order = append(order, s.Layer)
		}
		row.Spans++
		row.Total += s.End - s.Start
		row.Self += self[s.ID]
	}
	out := make([]layerTime, 0, len(order))
	for _, l := range order {
		out = append(out, *rows[l])
	}
	return out
}

// writeLayerTable prints the self-time table.
func writeLayerTable(w io.Writer, rows []layerTime) {
	var all time.Duration
	for _, r := range rows {
		all += r.Self
	}
	fmt.Fprintf(w, "%-10s %8s %12s %12s %7s\n", "layer", "spans", "total_ms", "self_ms", "self%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8d %12.3f %12.3f %6.1f%%\n",
			r.Layer, r.Spans, ms(r.Total), ms(r.Self), 100*ratio(float64(r.Self), float64(all)))
	}
}

// dump writes every span as JSON.
func (r *recorder) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(r.snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
