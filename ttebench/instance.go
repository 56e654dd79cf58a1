package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// input is one instance's generated input, made before any timer starts:
// the stream a city scenario is drawn from, or the serialized sparse
// instance.
type input struct {
	scenario   *rng.Stream
	sparseJSON []byte
	solve      *rng.Stream
}

func makeInput(w workload, s *rng.Stream) (input, error) {
	in := input{}
	if w.City != nil {
		in.scenario = s.Child()
	} else {
		js, err := sparseJSON(*w.Sparse, s.Child())
		if err != nil {
			return in, err
		}
		in.sparseJSON = js
	}
	in.solve = s.Child()
	return in, nil
}

// result is everything measured on one cold run: setup, solve to a
// certified equilibrium, and the checks.
type result struct {
	setup, solve, certify time.Duration
	slots                 int
	slotDur               []time.Duration
	loop                  time.Duration
	users                 int
	msgs, bytes           int64
	peakHeapMB            float64
	welfare               float64
	covered               int
	osConns               int
	violations            []string
	layer                 map[string]float64 // traced only
	spans                 []Span             // traced only
}

func (r result) tte() time.Duration { return r.setup + r.solve + r.certify }
func (r result) failed() bool       { return len(r.violations) > 0 }

// runInstance makes one cold run of the workload on the input drawn from
// s. Every error and invariant violation lands in result.violations.
func runInstance(w workload, s *rng.Stream, traced bool, traceID string) result {
	var res result
	inp, err := makeInput(w, s)
	if err != nil {
		res.violations = append(res.violations, err.Error())
		return res
	}
	runtime.GC()
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	var regBefore telemetry.Snapshot
	if traced {
		regBefore = telemetry.Default().Snapshot()
	}
	clk := newClock()
	tb := &traceBuilder{trace: traceID}
	layer := map[string]float64{}

	runStart := clk.now()
	in, setupSpans, err := setup(w, inp, clk, layer)
	setupEnd := clk.now()
	res.setup = time.Duration(setupEnd - runStart)
	if err != nil {
		res.violations = append(res.violations, err.Error())
		return res
	}
	res.users = in.NumUsers()

	// Collect the setup's garbage before the solve, outside every timer:
	// otherwise the live-heap peak reads the setup's transient structures
	// or not, depending on where a GC cycle happened to fall.
	runtime.GC()
	samp := startSampler()
	solveStart := clk.now()
	so := solve(w, in, inp.solve, clk, traced)
	solveEnd := clk.now()
	res.solve = time.Duration(solveEnd - solveStart)
	if so.err != nil {
		res.violations = append(res.violations, so.err.Error())
	}

	cert, cerr := certify(in, so.choices)
	certEnd := clk.now()
	res.certify = time.Duration(certEnd - solveEnd)
	peakLive, peakG := samp.stop()
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)

	if cerr != nil {
		res.violations = append(res.violations, cerr.Error())
	}
	res.violations = append(res.violations, checkRun(in, so.outcome, cert)...)
	if w.Kind == kindNode && so.osConns != 1 {
		res.violations = append(res.violations, fmt.Sprintf("%d OS connections opened, want exactly the one peer link", so.osConns))
	}
	res.slots = so.slots
	res.slotDur = so.slotDurations()
	res.loop = time.Duration(so.loopEnd - so.loopStart)
	res.msgs, res.bytes = so.msgs, so.bytes
	res.peakHeapMB = float64(peakLive) / (1 << 20)
	res.welfare, res.covered = cert.welfare, cert.covered
	res.osConns = so.osConns
	if !traced {
		return res
	}

	// Per-layer metrics and the span tree of the traced run.
	regAfter := telemetry.Default().Snapshot()
	for k, v := range so.layer {
		layer[k] = v
	}
	layer["core.certify_s"] = res.certify.Seconds()
	registryLayer(layer, regBefore, regAfter)
	layer["runtime.gc_pause_s"] = float64(msAfter.PauseTotalNs-msBefore.PauseTotalNs) / 1e9
	layer["runtime.gc_cycles"] = float64(msAfter.NumGC - msBefore.NumGC)
	layer["runtime.alloc_mb"] = float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / (1 << 20)
	layer["runtime.goroutines_peak"] = float64(peakG)

	rootID := tb.add(nameRun, 0, runStart, certEnd)
	for _, sp := range setupSpans.spans {
		tb.add(sp.name, rootID, sp.start, sp.end)
	}
	solveID := tb.add(nameSolve, rootID, solveStart, solveEnd)
	tb.add(nameCertify, rootID, solveEnd, certEnd)
	slotIDs := tb.slots(solveID, so.slotSpans(solveStart, solveEnd))
	tb.attach(slotIDs, so.spans...)
	for _, sp := range so.solveChildren {
		tb.add(sp.name, solveID, sp.start, sp.end)
	}
	layer["trace.coverage_ratio"] = so.coverage(tb, slotIDs)
	layer["trace.spans"] = float64(len(tb.spans))
	res.layer = layer
	res.spans = tb.spans
	return res
}

// setup turns the input into a validated instance; this is setup_s.
func setup(w workload, inp input, clk *clock, layer map[string]float64) (*core.Instance, *spanBuf, error) {
	sb := &spanBuf{}
	if w.Sparse != nil {
		t0 := clk.now()
		in, err := core.ReadJSON(bytes.NewReader(inp.sparseJSON))
		t1 := clk.now()
		sb.add(nameSetupDecode, 0, t0, t1)
		layer["core.decode_s"] = time.Duration(t1 - t0).Seconds()
		return in, sb, err
	}
	spec := trace.Shanghai()
	spec.Trips = w.City.Trips
	t0 := clk.now()
	ds, err := trace.Generate(spec, w.City.DatasetSeed)
	if err != nil {
		return nil, sb, fmt.Errorf("trace: %w", err)
	}
	t1 := clk.now()
	world, err := experiments.WorldFromDataset(spec, ds)
	if err != nil {
		return nil, sb, fmt.Errorf("world: %w", err)
	}
	t2 := clk.now()
	sc, err := world.BuildScenario(experiments.ScenarioConfig{Users: w.City.Users, Tasks: w.City.Tasks}, inp.scenario)
	if err != nil {
		return nil, sb, fmt.Errorf("scenario: %w", err)
	}
	t3 := clk.now()
	sb.add(nameSetupTrace, 0, t0, t1)
	sb.add(nameSetupWorld, 0, t1, t2)
	sb.add(nameSetupScenario, 0, t2, t3)
	layer["trace.generate_s"] = time.Duration(t1 - t0).Seconds()
	layer["experiments.world_s"] = time.Duration(t2 - t1).Seconds()
	layer["experiments.scenario_build_s"] = time.Duration(t3 - t2).Seconds()
	return sc.Instance, sb, nil
}

// solveOut is what a solve leaves for the checker and the metrics.
type solveOut struct {
	outcome
	err        error
	slots      int
	solveStart int64
	// slotEnds[s] is the time slot s closed (slotEnds[0]: the handshake
	// closed and the slot loop began). The engine, whose slots are calls,
	// records explicit starts in slotStarts instead.
	slotEnds   []int64
	slotStarts []int64
	loopStart  int64
	loopEnd    int64
	msgs       int64
	bytes      int64
	osConns    int
	// traced only
	marks         *slotMarks
	spans         []*spanBuf
	solveChildren []rawSpan
	layer         map[string]float64
}

// slotDurations returns the wall time of every decision slot.
func (so *solveOut) slotDurations() []time.Duration {
	var out []time.Duration
	for s := 1; s < len(so.slotEnds) && s <= so.slots; s++ {
		start := so.slotEnds[s-1]
		if so.slotStarts != nil {
			start = so.slotStarts[s]
		}
		out = append(out, time.Duration(so.slotEnds[s]-start))
	}
	return out
}

// slotSpans returns [start,end] of the init span and of every slot, the
// last one being the closing (termination) slot.
func (so *solveOut) slotSpans(solveStart, solveEnd int64) [][2]int64 {
	out := [][2]int64{{solveStart, so.loopStart}}
	for s := 1; s < len(so.slotEnds); s++ {
		start := so.slotEnds[s-1]
		if so.slotStarts != nil {
			start = so.slotStarts[s]
		}
		out = append(out, [2]int64{start, so.slotEnds[s]})
	}
	last := so.loopStart
	if n := len(so.slotEnds); n > 0 {
		last = so.slotEnds[n-1]
	}
	return append(out, [2]int64{last, so.loopEnd})
}

// coverage adds the per-slot phase spans (broadcast, collect, commit)
// derived from the link marks and returns the share of slot-loop time
// they cover. The engine has no phases; its coverage is the share covered
// by its per-slot calls.
func (so *solveOut) coverage(tb *traceBuilder, slotIDs []int) float64 {
	loop := so.loopEnd - so.loopStart
	if loop <= 0 {
		return 0
	}
	var cov int64
	if so.marks == nil {
		for _, d := range so.slotDurations() {
			cov += int64(d)
		}
		return float64(cov) / float64(loop)
	}
	spans := so.slotSpans(so.loopStart, so.loopEnd)
	for s := 1; s < len(spans); s++ {
		lo, hi := spans[s][0], spans[s][1]
		if s >= len(so.marks.firstInfo) {
			break
		}
		first, last, req := so.marks.firstInfo[s].Load(), so.marks.lastInfo[s].Load(), so.marks.lastReq[s].Load()
		if first < 0 || last == 0 || req == 0 {
			continue
		}
		var ivs [][2]int64
		parent := slotIDs[s]
		add := func(name string, a, b int64) {
			if b > a {
				tb.add(name, parent, a, b)
				ivs = append(ivs, [2]int64{a, b})
			}
		}
		add(nameBroadcast, first, last)
		add(nameCollect, last, req)
		add(nameCommit, req, hi)
		cov += covered(lo, hi, ivs)
	}
	return float64(cov) / float64(loop)
}
