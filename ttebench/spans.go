package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/wire"
)

// This file is the benchmark's tracer. Spans are recorded only at
// boundaries the benchmark owns (its calls into the layers, its links, the
// observer callbacks), kept in memory per goroutine, and assembled into a
// tree when the run ends: every span of one run shares a trace ID and each
// message span is parented by the slot span its message belongs to.

// clock timestamps events as nanoseconds since a run's origin, on the
// monotonic clock.
type clock struct{ origin time.Time }

func newClock() *clock      { return &clock{origin: time.Now()} }
func (c *clock) now() int64 { return int64(time.Since(c.origin)) }

// rawSpan is one recorded interval; its parent is resolved later from the
// slot it belongs to.
type rawSpan struct {
	name       string
	slot       int32
	start, end int64
}

// spanBuf collects the spans of one goroutine (or one link direction).
type spanBuf struct{ spans []rawSpan }

func (b *spanBuf) add(name string, slot int, start, end int64) {
	b.spans = append(b.spans, rawSpan{name: name, slot: int32(slot), start: start, end: end})
}

// Span names. Message spans are named by direction and wire kind.
const (
	nameRun           = "run"
	nameSetupTrace    = "setup.trace_generate"
	nameSetupWorld    = "setup.world"
	nameSetupScenario = "setup.scenario_build"
	nameSetupDecode   = "setup.decode"
	nameSolve         = "solve"
	nameCertify       = "certify"
	nameInit          = "init"
	nameSlot          = "slot"
	nameAgentRun      = "agent.run"
	nameObserver      = "observer"
	nameShardObserver = "shard_observer"
	namePeerObserver  = "peer_observer"
	nameGossipSend    = "gossip.send"
	nameGossipRecv    = "gossip.recv"
	nameBroadcast     = "phase.broadcast"
	nameCollect       = "phase.collect"
	nameCommit        = "phase.commit"
)

var recvNames, sendNames = kindNames("agent.recv."), kindNames("agent.send.")

func kindNames(prefix string) [32]string {
	var out [32]string
	for k := range out {
		out[k] = prefix + wire.Kind(k).String()
	}
	return out
}

func spanRecvName(k wire.Kind) string { return recvNames[int(k)%len(recvNames)] }
func spanSendName(k wire.Kind) string { return sendNames[int(k)%len(sendNames)] }

// Span is one node of an assembled trace, in the dump's schema.
type Span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// traceBuilder assembles one run's spans into a tree.
type traceBuilder struct {
	trace string
	spans []Span
}

func (t *traceBuilder) add(name string, parent int, start, end int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{Trace: t.trace, ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// slots adds the init span and one span per slot under solve, given
// their intervals (index 0 is the handshake, the last is the closing
// termination slot), and returns their span IDs indexed by slot.
func (t *traceBuilder) slots(solveID int, ivs [][2]int64) []int {
	ids := make([]int, len(ivs))
	for s, iv := range ivs {
		name := nameSlot
		if s == 0 {
			name = nameInit
		}
		ids[s] = t.add(name, solveID, iv[0], iv[1])
	}
	return ids
}

// attach adds raw spans under the slot spans they belong to.
func (t *traceBuilder) attach(slotIDs []int, bufs ...*spanBuf) {
	for _, b := range bufs {
		if b == nil {
			continue
		}
		for _, r := range b.spans {
			s := int(r.slot)
			if s < 0 {
				s = 0
			}
			if s >= len(slotIDs) {
				s = len(slotIDs) - 1
			}
			t.add(r.name, slotIDs[s], r.start, r.end)
		}
	}
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval its children cover.
func selfTimes(spans []Span) map[string]int64 {
	children := make(map[int][][2]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns how much of [lo,hi) the union of the intervals covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 || hi <= lo {
		return 0
	}
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeDump writes the spans as gzip-compressed JSON lines.
func writeDump(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("span dump %s: %w", path, err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span dump %s: %w", path, err)
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return fmt.Errorf("span dump %s: %w", path, err)
	}
	return f.Close()
}

// readDump reads a dump written by writeDump.
func readDump(path string) ([]Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("span dump %s: %w", path, err)
	}
	dec := json.NewDecoder(zr)
	var out []Span
	for {
		var s Span
		if err := dec.Decode(&s); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("span dump %s: %w", path, err)
		}
		out = append(out, s)
	}
}
