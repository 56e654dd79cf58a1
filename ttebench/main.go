// Command ttebench measures time to a certified equilibrium: each run
// starts cold from a seed, builds the instance, drives one runtime
// (engine, standalone platform, in-process federation or multi-node
// peers) until the protocol terminates, and certifies the result by
// recomputing the Nash gap from the final choices. See README.md.
//
//	ttebench --workload city-sync --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics of a traced run with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/rng"
)

// hardLimit bounds a whole invocation: a run that hangs is reported and
// killed well inside the 180 s a caller allows.
const hardLimit = 170 * time.Second

// deadline is the latest a solve may start. The solve count does not
// depend on speed, so a build slow enough to pass it fails the run.
const deadline = hardLimit * 3 / 4

func main() {
	time.AfterFunc(hardLimit, func() {
		fmt.Fprintf(os.Stderr, "ttebench: no result after %v, giving up\n", hardLimit)
		os.Exit(3)
	})
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags, plus the span dump
// directory, which the program always sets to spansDir.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	spansDir string
}

// spansDir is where a traced run writes its span dump, relative to the
// directory the program runs in (the checkout root).
const spansDir = ".bench_build/spans"

// maxProcs caps GOMAXPROCS: the workload sizes were fitted to two CPUs,
// and the cap keeps runs on larger hosts comparable with them.
const maxProcs = 2

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("ttebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload name (city-engine, city-sync, sparse-fed-det, sparse-node-det)")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measurement budget in seconds; sets the number of cold solves (at least one)")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run: report per-layer metrics and write the span dump")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.spansDir = spansDir
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace %d, want 0 or 1", o.trace)
	}
	if o.seconds < 0 {
		return o, fmt.Errorf("--seconds %v, want >= 0", o.seconds)
	}
	return o, nil
}

// provenance identifies the machine, the inputs and the work of one
// invocation.
type provenance struct {
	Workload   workload `json:"workload"`
	Seed       uint64   `json:"seed"`
	Trace      int      `json:"trace"`
	Solves     int      `json:"solves"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	ProcsRule  string   `json:"gomaxprocs_set_to"`
	Runs       int      `json:"runs"`
	Slots      []int    `json:"slots"`
	OSConns    []int    `json:"os_connections"`
}

// report is the final JSON line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "ttebench:", err)
		return 2
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "ttebench:", err)
		return 2
	}
	return measure(w, o, stdout, stderr)
}

// measure makes the solves the budget buys and prints the tables and the
// result line.
func measure(w workload, o options, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	// A traced run solves every input twice (untraced, then traced), so it
	// takes half as many inputs to fit the same budget.
	solves := w.solvesFor(o.seconds / float64(1+o.trace))
	prov := provenance{
		Workload: w, Seed: o.seed, Trace: o.trace, Solves: solves,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		ProcsRule: fmt.Sprintf("min(%d, num_cpu)", maxProcs),
	}
	if o.trace == 1 {
		if err := os.MkdirAll(o.spansDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "ttebench:", err)
			return 1
		}
	}

	root := rng.New(o.seed)
	start := time.Now()
	var plain, traced []result
	for i := 0; i < solves; i++ {
		instSeed := uint64(root.Intn(1 << 62))
		if time.Since(start) > deadline {
			// A build this slow fails the run rather than solving fewer
			// inputs: every solve it did not start counts as failed.
			r := result{violations: []string{fmt.Sprintf("solve %d not started: %v deadline passed", i, deadline)}}
			logRun(stderr, w.Name, i, "skipped", r)
			plain = append(plain, r)
			continue
		}
		id := fmt.Sprintf("%s-s%d-r%d", w.Name, o.seed, i)
		r := runInstance(w, rng.New(instSeed), false, id)
		plain = append(plain, r)
		logRun(stderr, w.Name, i, "plain", r)
		if o.trace == 1 {
			t := runInstance(w, rng.New(instSeed), true, id)
			if u := r.tte(); u > 0 && t.layer != nil {
				t.layer["tracing.overhead_ratio"] = t.tte().Seconds() / u.Seconds()
			}
			logRun(stderr, w.Name, i, "traced", t)
			if i == 0 {
				path := filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.spans.jsonl.gz", w.Name, o.seed))
				if err := writeDump(path, t.spans); err != nil {
					t.violations = append(t.violations, err.Error())
				} else {
					fmt.Fprintf(stdout, "span dump: %s (%d spans, trace %s)\n", path, len(t.spans), id)
				}
				printSelfTimes(stdout, t.spans)
			}
			t.spans = nil
			traced = append(traced, t)
		}
	}

	all := append(append([]result(nil), plain...), traced...)
	rep := report{Attempted: len(all), Metrics: map[string]metricValue{}}
	for _, r := range all {
		prov.Slots = append(prov.Slots, r.slots)
		prov.OSConns = append(prov.OSConns, r.osConns)
		if r.failed() {
			rep.Failed++
		}
	}
	prov.Runs = len(all)
	rep.Correct = rep.Failed == 0
	pj, err := json.Marshal(prov)
	if err != nil {
		fmt.Fprintln(stderr, "ttebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "provenance: %s\n", pj)

	e2e := endToEndValues(plain)
	printTable(stdout, "end-to-end ("+w.Name+", untraced)", endToEnd, e2e, extraEndToEnd(w, plain))
	if o.trace == 0 {
		for _, m := range endToEnd {
			rep.Metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
	} else {
		layer := layerValues(traced)
		printTable(stdout, "per-layer ("+w.Name+", traced)", perLayer, layer, nil)
		for _, m := range perLayer {
			rep.Metrics[m.name] = metricValue{layer[m.name], m.unit}
		}
	}
	js, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "ttebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(js))
	return 0
}

func logRun(stderr io.Writer, name string, i int, mode string, r result) {
	fmt.Fprintf(stderr, "%s run %d %s: setup %.3fs solve %.3fs certify %.3fs slots %d welfare %.4f heap %.3fMB",
		name, i, mode, r.setup.Seconds(), r.solve.Seconds(), r.certify.Seconds(), r.slots, r.welfare, r.peakHeapMB)
	for _, v := range r.violations {
		fmt.Fprintf(stderr, "\n  VIOLATION: %s", v)
	}
	fmt.Fprintln(stderr)
}

// endToEndValues aggregates the untraced runs: medians across runs, and
// slot percentiles over every slot of every certified run.
func endToEndValues(runs []result) map[string]float64 {
	var tte, setup, solve, rps, slots, heap []float64
	var slotMS []float64
	ok := 0
	for _, r := range runs {
		if r.failed() {
			continue
		}
		ok++
		tte = append(tte, r.tte().Seconds())
		setup = append(setup, r.setup.Seconds())
		solve = append(solve, r.solve.Seconds())
		rps = append(rps, ratio(float64(r.slots), r.loop.Seconds()))
		slots = append(slots, float64(r.slots))
		heap = append(heap, r.peakHeapMB)
		for _, d := range r.slotDur {
			slotMS = append(slotMS, float64(d)/1e6)
		}
	}
	return map[string]float64{
		"tte_s":           median(tte),
		"setup_s":         median(setup),
		"solve_s":         median(solve),
		"rounds_per_sec":  median(rps),
		"slot_p50_ms":     quantile(slotMS, 0.5),
		"slot_p90_ms":     quantile(slotMS, 0.9),
		"slots":           median(slots),
		"peak_heap_mb":    median(heap),
		"certified_ratio": ratio(float64(ok), float64(len(runs))),
	}
}

// extraEndToEnd returns the end-to-end figures printed in the table but
// kept out of the JSON result, because they can be 0 or negative or do
// not exist on every workload: welfare Σ P_i, tasks covered (all of them
// on the city workloads), traffic per user (the engine has none) and the
// failure ratio (the JSON carries it as certified_ratio and
// failed/attempted).
func extraEndToEnd(w workload, runs []result) []string {
	var welfare, covered, msgs, bytes []float64
	failed := 0
	for _, r := range runs {
		if r.failed() {
			failed++
			continue
		}
		welfare = append(welfare, r.welfare)
		covered = append(covered, float64(r.covered))
		msgs = append(msgs, ratio(float64(r.msgs), float64(r.users)))
		bytes = append(bytes, ratio(float64(r.bytes), float64(r.users)))
	}
	out := []string{
		fmt.Sprintf("%-20s %14.4f profit", "welfare", median(welfare)),
		fmt.Sprintf("%-20s %14.4f count", "covered_tasks", median(covered)),
	}
	if w.Kind == kindEngine {
		out = append(out, fmt.Sprintf("%-20s %14s", "msgs_per_user", "n/a"), fmt.Sprintf("%-20s %14s", "bytes_per_user", "n/a"))
	} else {
		out = append(out, fmt.Sprintf("%-20s %14.4f count", "msgs_per_user", median(msgs)),
			fmt.Sprintf("%-20s %14.4f B", "bytes_per_user", median(bytes)))
	}
	return append(out, fmt.Sprintf("%-20s %14.4f ratio", "fail_ratio", ratio(float64(failed), float64(len(runs)))))
}

// layerValues takes the median of every per-layer metric over the traced
// runs that passed their checks.
func layerValues(runs []result) map[string]float64 {
	vals := map[string][]float64{}
	for _, r := range runs {
		if r.failed() {
			continue
		}
		for k, v := range r.layer {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, xs := range vals {
		out[k] = median(xs)
	}
	return out
}

func printTable(w io.Writer, title string, defs []metricDef, vals map[string]float64, extra []string) {
	fmt.Fprintf(w, "%s\n", title)
	for _, m := range defs {
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", m.name, vals[m.name], m.unit)
	}
	for _, e := range extra {
		fmt.Fprintf(w, "  %s\n", e)
	}
}

// printSelfTimes prints the span names with the largest summed self time.
func printSelfTimes(w io.Writer, spans []Span) {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintln(w, "self time by span name (first traced run)")
	for i, n := range names {
		if i == 12 {
			break
		}
		fmt.Fprintf(w, "  %-30s %12.4f s\n", n, float64(self[n])/1e9)
	}
}
