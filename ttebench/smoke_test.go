package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rng"
)

// TestSmokeAllWorkloads runs every workload at tiny size, untraced and
// traced, and checks the result line: certified, and every metric named
// in the contract present with its unit.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				dir := t.TempDir()
				var out, errb bytes.Buffer
				o := options{workload: w.Name, seed: 3, trace: int(trace[0] - '0'), spansDir: dir}
				if code := measure(w.tiny(), o, &out, &errb); code != 0 {
					t.Fatalf("exit %d: %s", code, errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				// --seconds 0 still makes one solve, traced runs solve it twice.
				if !rep.Correct || rep.Failed != 0 || rep.Attempted != 1+o.trace {
					t.Fatalf("run not certified: %+v\n%s", rep, errb.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.name, got, m.unit)
					}
				}
				if trace == "0" {
					for _, m := range endToEnd {
						if rep.Metrics[m.name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", m.name, rep.Metrics[m.name].Value)
						}
					}
					for _, name := range []string{"msgs_per_user", "bytes_per_user", "welfare", "fail_ratio", "provenance:"} {
						if !strings.Contains(out.String(), name) {
							t.Errorf("output lacks %s", name)
						}
					}
					return
				}
				for _, name := range []string{"trace.coverage_ratio", "tracing.overhead_ratio", "trace.spans"} {
					if rep.Metrics[name].Value <= 0 {
						t.Errorf("%s = %v, want > 0", name, rep.Metrics[name].Value)
					}
				}
				dumps, _ := filepath.Glob(filepath.Join(dir, "*.spans.jsonl.gz"))
				if len(dumps) != 1 {
					t.Fatalf("want one span dump, found %v", dumps)
				}
				spans, err := readDump(dumps[0])
				if err != nil {
					t.Fatal(err)
				}
				if float64(len(spans)) < 10 {
					t.Fatalf("span dump holds %d spans", len(spans))
				}
				if st, err := os.Stat(dumps[0]); err != nil || st.Size() == 0 {
					t.Fatalf("empty span dump: %v", err)
				}
			})
		}
	}
}

// TestEngineSteppingMatchesRun pins the claim the city-engine workload
// rests on: driving RunFrom one slot per call reaches the same final
// profile, in the same number of slots, as one engine.Run.
func TestEngineSteppingMatchesRun(t *testing.T) {
	in := genSparse(sparseParams{Users: 150, Tasks: 60, MaxTasksPerRoute: 4}, rng.New(31))
	whole := engine.Run(in, engine.NewPUU, rng.New(32), engine.Config{})

	s := rng.New(32)
	prof := core.RandomProfile(in, s.Child())
	ss := s.Child()
	slots := 0
	for !engine.RunFrom(prof, engine.NewPUU, ss, engine.Config{MaxSlots: 1}).Converged {
		slots++
	}
	if slots != whole.Slots {
		t.Fatalf("stepped run took %d slots, engine.Run %d", slots, whole.Slots)
	}
	if !slices.Equal(prof.Choices(), whole.Profile.Choices()) {
		t.Fatal("stepped run reached a different profile")
	}
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "city-sync", "--trace", "2"},
		{"--workload", "city-sync", "--seconds", "-1"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// tiny shrinks a workload for the smoke tests: same runtime and policy,
// a few dozen users.
func (w workload) tiny() workload {
	if w.City != nil {
		w.City = &cityParams{Trips: 40, DatasetSeed: 1, Users: 60, Tasks: 40}
	}
	if w.Sparse != nil {
		w.Sparse = &sparseParams{Users: 40, Tasks: 40, MaxTasksPerRoute: 4}
	}
	return w
}

// TestNodeRunReplaysPotentials checks that a traced multi-node run feeds
// the ascent check: one replayed Φ per slot plus the initial one.
func TestNodeRunReplaysPotentials(t *testing.T) {
	w, err := workloadByName("sparse-node-det")
	if err != nil {
		t.Fatal(err)
	}
	w = w.tiny()
	inp, err := makeInput(w, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	clk := newClock()
	in, _, err := setup(w, inp, clk, map[string]float64{})
	if err != nil {
		t.Fatal(err)
	}
	so := solve(w, in, inp.solve, clk, true)
	if so.err != nil || !so.converged {
		t.Fatalf("run failed: converged %v, %v", so.converged, so.err)
	}
	if len(so.potentials) != so.slots+1 {
		t.Fatalf("%d replayed potentials for %d slots", len(so.potentials), so.slots)
	}
}
