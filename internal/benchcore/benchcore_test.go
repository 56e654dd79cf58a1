package benchcore

import (
	"fmt"
	"strings"
	"testing"
)

// TestSlotAllocGate exercises the slot allocation gate on synthetic
// reports: at the ceilings it passes, one alloc over it fails naming the
// entry, each GOMAXPROCS above 1 raises every ceiling by
// slotAllocsPerWorker, and entries without a ceiling are ignored.
func TestSlotAllocGate(t *testing.T) {
	var clean Report
	for name, ceil := range SlotAllocCeilings {
		clean.Entries = append(clean.Entries, Entry{Name: name, AllocsPerOp: ceil})
	}
	clean.Entries = append(clean.Entries, Entry{Name: "NashGap/naive/M500", AllocsPerOp: 1 << 20})
	if err := clean.CheckSlotAllocs(); err != nil {
		t.Fatalf("report at the ceilings failed the gate: %v", err)
	}

	bump := func(r *Report, by int64) {
		for i, e := range r.Entries {
			if e.Name == "SlotDense/cached/M500" {
				r.Entries[i].AllocsPerOp += by
			}
		}
	}
	for _, procs := range []int{0, 1, 4} {
		allowed := slotAllocsPerWorker * int64(max(procs-1, 0))
		r := Report{GoMaxProcs: procs, Entries: append([]Entry(nil), clean.Entries...)}
		bump(&r, allowed)
		if err := r.CheckSlotAllocs(); err != nil {
			t.Fatalf("GOMAXPROCS=%d, %d over the base ceiling: %v", procs, allowed, err)
		}
		bump(&r, 1)
		if err := r.CheckSlotAllocs(); err == nil || !strings.Contains(err.Error(), "SlotDense/cached/M500") {
			t.Fatalf("GOMAXPROCS=%d, one over the allowance: gate error = %v", procs, err)
		}
	}
}

// TestSlotAllocCeilingsNamesCovered pins that every ceiling names an entry
// the default core sweep produces, so the gate cannot silently rot.
func TestSlotAllocCeilingsNamesCovered(t *testing.T) {
	have := map[string]bool{}
	for _, p := range suite() {
		for _, m := range []int{50, 500, 5000} {
			have[fmt.Sprintf("%s/cached/M%d", p.metric, m)] = true
		}
	}
	for name := range SlotAllocCeilings {
		if !have[name] {
			t.Errorf("ceiling %s names no entry of the default suite", name)
		}
	}
}
