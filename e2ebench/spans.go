package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// span is one timed operation the benchmark recorded: a request root, the
// client's own steps, or an in-process replay of one layer call. Times are
// nanoseconds since the recorder's epoch, so self times stay exact at the
// nanosecond scale of the codec calls (Chrome's JSON carries microseconds).
type span struct {
	Trace  uint64
	ID     uint64
	Parent uint64 // 0 for a trace root
	Name   string
	Start  int64
	End    int64
	Reps   int // calls of the layer function the span covers (0 means 1)
}

// recorder keeps every span in memory until the benchmark writes them out.
type recorder struct {
	epoch  time.Time
	spans  []span
	nextID uint64
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

// at converts a wall-clock instant into recorder nanoseconds.
func (r *recorder) at(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

// add records one span and returns its ID.
func (r *recorder) add(trace, parent uint64, name string, start, end int64, reps int) uint64 {
	r.nextID++
	r.spans = append(r.spans, span{Trace: trace, ID: r.nextID, Parent: parent, Name: name, Start: start, End: end, Reps: reps})
	return r.nextID
}

// begin opens a span at the current instant and returns its ID; end
// closes it. IDs are assigned in order from 1, so ID-1 indexes spans.
func (r *recorder) begin(trace, parent uint64, name string) uint64 {
	return r.add(trace, parent, name, r.at(time.Now()), 0, 0)
}

func (r *recorder) end(id uint64) { r.spans[id-1].End = r.at(time.Now()) }

// timed runs fn reps times inside one child span of parent and returns the
// span's ID.
func (r *recorder) timed(trace, parent uint64, name string, reps int, fn func()) uint64 {
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return r.add(trace, parent, name, r.at(t0), r.at(time.Now()), reps)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children are merged,
// and a child's part outside the parent's interval does not count.
func selfTimes(spans []span) map[uint64]int64 {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		var iv [][2]int64
		for _, c := range kids[s.ID] {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		for i, v := range iv {
			if i == 0 || v[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = v[0], v[1]
			} else if v[1] > curHi {
				curHi = v[1]
			}
		}
		covered += curHi - curLo
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// selfPerCall collects, for every span named name, its self time divided
// by the calls it covers, in the given unit.
func selfPerCall(spans []span, self map[uint64]int64, name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		reps := s.Reps
		if reps < 1 {
			reps = 1
		}
		out = append(out, float64(self[s.ID])/float64(reps)/float64(unit))
	}
	return out
}

// writeChrome writes the spans as a Chrome trace-event document (load it
// in chrome://tracing or ui.perfetto.dev). Each trace gets its own row;
// args carry the span and parent IDs, the call count, and the self time.
func writeChrome(w io.Writer, spans []span) error {
	self := selfTimes(spans)
	rows := make(map[uint64]int)
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range spans {
		row, ok := rows[s.Trace]
		if !ok {
			row = len(rows) + 1
			rows[s.Trace] = row
		}
		if i > 0 {
			bw.WriteByte(',')
		}
		reps := s.Reps
		if reps < 1 {
			reps = 1
		}
		fmt.Fprintf(bw, `{"name":%s,"ph":"X","pid":1,"tid":%d,"ts":%s,"dur":%s,"args":{"trace_id":"%016x","span_id":"%016x","parent_id":"%016x","reps":%d,"self_us":%s}}`,
			strconv.Quote(s.Name), row, micros(s.Start), micros(s.End-s.Start),
			s.Trace, s.ID, s.Parent, reps, micros(self[s.ID]))
	}
	fmt.Fprint(bw, "]}\n")
	return bw.Flush()
}

// micros renders nanoseconds as fractional microseconds.
func micros(ns int64) string { return strconv.FormatFloat(float64(ns)/1e3, 'f', 3, 64) }
