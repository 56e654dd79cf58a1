package main

import (
	"path/filepath"
	"reflect"
	"testing"
)

func TestSpanDumpRoundTrip(t *testing.T) {
	tb := &traceBuilder{trace: "t-1"}
	root := tb.add(nameRun, 0, 0, 100)
	solve := tb.add(nameSolve, root, 10, 90)
	ids := tb.slots(solve, [][2]int64{{10, 20}, {20, 50}, {50, 90}})
	tb.attach(ids, &spanBuf{spans: []rawSpan{
		{name: spanRecvName(3), slot: 1, start: 21, end: 30},
		{name: nameGossipRecv, slot: 7, start: 60, end: 61},
		{name: nameObserver, slot: -1, start: 12, end: 13},
	}})
	path := filepath.Join(t.TempDir(), "d.spans.jsonl.gz")
	if err := writeDump(path, tb.spans); err != nil {
		t.Fatal(err)
	}
	got, err := readDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tb.spans) {
		t.Fatalf("round trip changed the spans:\n got %+v\nwant %+v", got, tb.spans)
	}
	// Parenting: a message span hangs under its slot, out-of-range slots
	// under the closing slot, negative ones under init.
	byName := map[string]Span{}
	for _, s := range got {
		byName[s.Name] = s
		if s.Trace != "t-1" {
			t.Fatalf("span %d has trace %q", s.ID, s.Trace)
		}
	}
	if p := byName[spanRecvName(3)].Parent; p != ids[1] {
		t.Errorf("message span parent %d, want slot 1 span %d", p, ids[1])
	}
	if p := byName[nameGossipRecv].Parent; p != ids[2] {
		t.Errorf("late span parent %d, want closing slot %d", p, ids[2])
	}
	if p := byName[nameObserver].Parent; p != ids[0] {
		t.Errorf("unslotted span parent %d, want init %d", p, ids[0])
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "p", Start: 0, End: 10},
		// Overlapping children [1,3] and [2,5] cover 4; [8,12] is clipped
		// to [8,10] and covers 2: self time of p is 10-6 = 4.
		{ID: 2, Parent: 1, Name: "c", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "c", Start: 2, End: 5},
		{ID: 4, Parent: 1, Name: "c", Start: 8, End: 12},
		// A grandchild covering all of child 2 leaves it no self time.
		{ID: 5, Parent: 2, Name: "g", Start: 0, End: 4},
	}
	self := selfTimes(spans)
	want := map[string]int64{"p": 4, "c": (2 - 2) + 3 + 4, "g": 4}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	if got := covered(0, 10, nil); got != 0 {
		t.Fatalf("covered with no intervals = %d", got)
	}
	if got := covered(0, 10, [][2]int64{{-5, 20}}); got != 10 {
		t.Fatalf("covered clipped = %d, want 10", got)
	}
}
