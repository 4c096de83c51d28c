package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildIntervals(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Name: "root", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{Trace: 1, ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: union 10..50
		{Trace: 1, ID: 4, Parent: 1, Name: "c", Start: 90, End: 150}, // only 90..100 lies inside root
		{Trace: 1, ID: 5, Parent: 2, Name: "a.x", Start: 12, End: 18},
		{Trace: 1, ID: 6, Parent: 0, Name: "later", Start: 200, End: 260},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 50, 2: 14, 3: 30, 4: 60, 5: 6, 6: 60} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestSelfPerCallDividesByReps(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "airproto.decode", Start: 0, End: 1600, Reps: 16},
		{ID: 2, Name: "airproto.decode", Start: 0, End: 300},
		{ID: 3, Name: "ota.infer", Start: 0, End: 5000},
	}
	got := selfPerCall(spans, selfTimes(spans), "airproto.decode", time.Nanosecond)
	if len(got) != 2 || got[0] != 100 || got[1] != 300 {
		t.Errorf("per-call self times = %v, want [100 300]", got)
	}
}

func TestRecorderNestsTimedCalls(t *testing.T) {
	r := newRecorder(time.Now())
	root := r.begin(9, 0, "bench.replay")
	child := r.timed(9, root, "work", 4, func() { time.Sleep(time.Millisecond) })
	r.end(root)
	self := selfTimes(r.spans)
	if r.spans[child-1].Parent != root || r.spans[child-1].Reps != 4 {
		t.Fatalf("child span %+v is not a 4-call child of %d", r.spans[child-1], root)
	}
	if d := r.spans[child-1].End - r.spans[child-1].Start; d < int64(4*time.Millisecond) {
		t.Errorf("child lasted %dns for four 1ms calls", d)
	}
	if total := r.spans[root-1].End - r.spans[root-1].Start; self[root] < 0 || self[root] >= total {
		t.Errorf("root self %d of total %d: the child must cover most of it", self[root], total)
	}
}

func TestWriteChromeEmitsTraceEvents(t *testing.T) {
	spans := []span{
		{Trace: 5, ID: 1, Name: "bench.request", Start: 1000, End: 121500},
		{Trace: 5, ID: 2, Parent: 1, Name: "loadgen.send", Start: 1000, End: 4000},
	}
	var buf bytes.Buffer
	if err := writeChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				Parent string  `json:"parent_id"`
				Self   float64 `json:"self_us"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	root, send := doc.TraceEvents[0], doc.TraceEvents[1]
	if root.Ph != "X" || root.Ts != 1 || root.Dur != 120.5 || root.Args.Self != 117.5 {
		t.Errorf("root event %+v, want a complete event at 1us lasting 120.5us with 117.5us self", root)
	}
	if send.Args.Parent != "0000000000000001" {
		t.Errorf("child's parent_id %q, want span 1", send.Args.Parent)
	}
}
