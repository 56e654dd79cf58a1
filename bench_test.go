// Benchmark harness: one benchmark per table and figure of the paper's §5
// (regenerating the same rows/series at reduced repetition counts — run
// cmd/vcsnav for full 500-rep reproductions), plus ablation benchmarks for
// the design choices called out in DESIGN.md §6.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/benchcore"
	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/optimal"
	"repro/internal/rng"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/spatial"
	"repro/internal/task"
	"repro/internal/trace"
)

// benchOpts keeps bench iterations affordable: a reduced-trip Shanghai
// world and a handful of repetitions. The experiment code path is identical
// to the paper-scale run.
func benchOpts(reps int) experiments.Options {
	spec := trace.Shanghai()
	spec.Trips = 60
	return experiments.Options{Seed: 1, Reps: reps, Datasets: []trace.Spec{spec}}
}

// runExperiment is the shared body of the per-figure benchmarks. The first
// table of the result is printed once under -v so the series is visible.
func runExperiment(b *testing.B, name string, reps int) {
	b.Helper()
	driver, err := experiments.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOpts(reps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := driver(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			for _, t := range tables {
				fmt.Println(t.String())
			}
		}
	}
}

// --- One benchmark per table and figure (§5.3) ---

func BenchmarkFig3(b *testing.B)   { runExperiment(b, "fig3", 1) }
func BenchmarkFig4(b *testing.B)   { runExperiment(b, "fig4", 3) }
func BenchmarkFig5(b *testing.B)   { runExperiment(b, "fig5", 3) }
func BenchmarkFig6(b *testing.B)   { runExperiment(b, "fig6", 1) }
func BenchmarkFig7(b *testing.B)   { runExperiment(b, "fig7", 3) }
func BenchmarkFig8(b *testing.B)   { runExperiment(b, "fig8", 3) }
func BenchmarkFig9(b *testing.B)   { runExperiment(b, "fig9", 3) }
func BenchmarkFig10(b *testing.B)  { runExperiment(b, "fig10", 3) }
func BenchmarkFig11(b *testing.B)  { runExperiment(b, "fig11", 2) }
func BenchmarkFig12(b *testing.B)  { runExperiment(b, "fig12", 2) }
func BenchmarkFig13(b *testing.B)  { runExperiment(b, "fig13", 1) }
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3", 3) }
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4", 3) }
func BenchmarkTable5(b *testing.B) { runExperiment(b, "table5", 2) }

// --- Core-operation microbenchmarks ---

func benchInstance(users, tasks int) *core.Instance {
	return core.RandomInstance(core.DefaultRandomConfig(users, tasks), rng.New(9))
}

func BenchmarkProfit(b *testing.B) {
	in := benchInstance(50, 80)
	p := core.RandomProfile(in, rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Profit(core.UserID(i % in.NumUsers()))
	}
}

func BenchmarkPotential(b *testing.B) {
	in := benchInstance(50, 80)
	p := core.RandomProfile(in, rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Potential()
	}
}

func BenchmarkBestResponseSet(b *testing.B) {
	in := benchInstance(50, 80)
	p := core.RandomProfile(in, rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.BestResponseSet(core.UserID(i % in.NumUsers()))
	}
}

func BenchmarkEngineDGRN(b *testing.B) {
	for _, size := range []struct{ users, tasks int }{{20, 30}, {50, 60}, {100, 100}} {
		b.Run(fmt.Sprintf("u%d_t%d", size.users, size.tasks), func(b *testing.B) {
			in := benchInstance(size.users, size.tasks)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := engine.Run(in, engine.NewSUU, rng.New(uint64(i)), engine.Config{})
				if !res.Converged {
					b.Fatal("no convergence")
				}
			}
		})
	}
}

func BenchmarkCORN(b *testing.B) {
	for _, users := range []int{10, 12, 14} {
		b.Run(fmt.Sprintf("u%d", users), func(b *testing.B) {
			in := benchInstance(users, 20)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := optimal.Solve(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkYenKShortest(b *testing.B) {
	g := roadnet.GenerateCity(roadnet.DefaultCity(roadnet.GridCity), rng.New(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := roadnet.NodeID(i % g.NumNodes())
		dst := roadnet.NodeID((i*37 + 19) % g.NumNodes())
		if src == dst {
			continue
		}
		if _, err := g.KShortestPaths(src, dst, 5, roadnet.ByLength); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Incremental-evaluation suite (machine-readable baseline) ---
//
// These mirror internal/benchcore exactly; `make bench-core` runs the same
// bodies under cmd/benchcore and records them to BENCH_incremental.json so
// future PRs have ns/op, allocs/op, and slots/sec numbers to regress
// against. The "naive" variants run the differential-testing oracle
// (core.Naive) — the deliberately simple from-scratch implementation the
// cached path is correctness-checked against — and are capped at M=500,
// where one naive NashGap already costs tens of milliseconds.

// incrementalMs sweeps the instance sizes of the baseline.
var incrementalMs = []int{50, 500, 5000}

// naiveBenchMaxM caps oracle benchmarks (O(M²·L̄) per query).
const naiveBenchMaxM = 500

func runIncrementalPair(b *testing.B, cached, naive func(int) func(*testing.B)) {
	b.Helper()
	for _, m := range incrementalMs {
		b.Run(fmt.Sprintf("cached/M%d", m), cached(m))
		if naive != nil && m <= naiveBenchMaxM {
			b.Run(fmt.Sprintf("naive/M%d", m), naive(m))
		}
	}
}

func BenchmarkNashGap(b *testing.B) {
	runIncrementalPair(b, benchcore.NashGapCached, benchcore.NashGapNaive)
}

// BenchmarkSlot measures one decision slot's evaluation work (request
// collection with τ/B metadata plus PUU selection) without mutating the
// profile, so every iteration sees the same stationary workload.
func BenchmarkSlot(b *testing.B) {
	runIncrementalPair(b, benchcore.SlotCached, benchcore.SlotNaive)
}

// BenchmarkNashGapDense and BenchmarkSlotDense run the same bodies on a
// world shaped like the city scenarios (about 60 tasks per route), where
// the best-response probe dominates a slot.
func BenchmarkNashGapDense(b *testing.B) {
	runIncrementalPair(b, benchcore.NashGapDenseCached, benchcore.NashGapDenseNaive)
}

func BenchmarkSlotDense(b *testing.B) {
	runIncrementalPair(b, benchcore.SlotDenseCached, benchcore.SlotDenseNaive)
}

func BenchmarkPotentialIncremental(b *testing.B) {
	runIncrementalPair(b, benchcore.PotentialCached, benchcore.PotentialNaive)
}

func BenchmarkTotalProfitIncremental(b *testing.B) {
	runIncrementalPair(b, benchcore.TotalProfitCached, benchcore.TotalProfitNaive)
}

// BenchmarkSetChoiceIncremental prices a move including all cache
// maintenance (counts, alpha-sums, cost terms, compensated Φ/ΣP_i).
func BenchmarkSetChoiceIncremental(b *testing.B) {
	runIncrementalPair(b, benchcore.SetChoiceCached, nil)
}

// --- Ablation benchmarks (DESIGN.md §6) ---

// Ablation 1: incremental best-response evaluation (ProfitIf on maintained
// counts) vs naive profile cloning + recompute.
func BenchmarkAblationIncremental(b *testing.B) {
	in := benchInstance(50, 80)
	p := core.RandomProfile(in, rng.New(1))
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			u := core.UserID(i % in.NumUsers())
			_ = p.ProfitIf(u, i%len(in.Users[u].Routes))
		}
	})
	b.Run("naive-clone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			u := core.UserID(i % in.NumUsers())
			q := p.Clone()
			q.SetChoice(u, i%len(in.Users[u].Routes))
			_ = q.Profit(u)
		}
	})
}

// Ablation 2: PUU parallel batches vs SUU single updates — decision slots
// and wall-clock to the same equilibrium quality.
func BenchmarkAblationPUU(b *testing.B) {
	in := benchInstance(60, 60)
	for _, cfg := range []struct {
		name    string
		factory engine.PolicyFactory
	}{{"SUU", engine.NewSUU}, {"PUU", engine.NewPUU}} {
		b.Run(cfg.name, func(b *testing.B) {
			slots := 0
			for i := 0; i < b.N; i++ {
				res := engine.Run(in, cfg.factory, rng.New(uint64(i)), engine.Config{})
				slots += res.Slots
			}
			b.ReportMetric(float64(slots)/float64(b.N), "slots/run")
		})
	}
}

// Ablation 3: binary-heap Dijkstra vs a naive O(V²) scan.
func BenchmarkAblationShortestPath(b *testing.B) {
	g := roadnet.GenerateCity(roadnet.DefaultCity(roadnet.GridCity), rng.New(3))
	b.Run("heap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := g.ShortestPath(0, roadnet.NodeID(g.NumNodes()-1), roadnet.ByLength); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if naiveDijkstra(g, 0, roadnet.NodeID(g.NumNodes()-1)) < 0 {
				b.Fatal("unreachable")
			}
		}
	})
}

// naiveDijkstra is the ablation baseline: linear-scan extraction.
func naiveDijkstra(g *roadnet.Graph, src, dst roadnet.NodeID) float64 {
	n := g.NumNodes()
	const inf = 1e18
	dist := make([]float64, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	for {
		u, best := -1, inf
		for i := 0; i < n; i++ {
			if !done[i] && dist[i] < best {
				u, best = i, dist[i]
			}
		}
		if u < 0 {
			return -1
		}
		if roadnet.NodeID(u) == dst {
			return dist[u]
		}
		done[u] = true
		for _, eid := range g.Out(roadnet.NodeID(u)) {
			e := g.Edges[eid]
			if nd := dist[u] + e.Length; nd < dist[e.To] {
				dist[e.To] = nd
			}
		}
	}
}

// Ablation 4: the distributed message-passing runtime vs the sequential
// engine on the same instance — the protocol's coordination overhead.
func BenchmarkAblationDistributed(b *testing.B) {
	in := benchInstance(20, 30)
	b.Run("sequential-engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := engine.Run(in, engine.NewSUU, rng.New(uint64(i)), engine.Config{})
			if !res.Converged {
				b.Fatal("no convergence")
			}
		}
	})
	b.Run("goroutine-runtime", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stats, err := distributed.RunInProcess(in, distributed.InProcessOptions{
				Platform:      distributed.PlatformConfig{Policy: distributed.SUU, Seed: uint64(i)},
				AgentSeedBase: uint64(i),
			})
			if err != nil {
				b.Fatal(err)
			}
			if !stats.Converged {
				b.Fatal("no convergence")
			}
		}
	})
}

// Ablation 5: quadtree coverage queries vs brute-force scans over tasks.
func BenchmarkAblationSpatialIndex(b *testing.B) {
	s := rng.New(4)
	const nTasks = 400
	items := make([]spatial.Item, nTasks)
	pts := make([]geo.Point, nTasks)
	for i := range items {
		p := geo.Pt(s.Uniform(0, 4000), s.Uniform(0, 4000))
		items[i] = spatial.Item{Pos: p, ID: i}
		pts[i] = p
	}
	idx := spatial.FromItems(items)
	// A local route (the common case): most routes cross a small part of
	// the city, so the quadtree prunes most of the task set.
	route := geo.Polyline{geo.Pt(500, 500), geo.Pt(900, 700), geo.Pt(1200, 1100)}
	const radius = 100.0
	b.Run("quadtree", func(b *testing.B) {
		b.ReportAllocs()
		var buf []int
		for i := 0; i < b.N; i++ {
			buf = idx.WithinRadiusOfPolyline(route, radius, buf[:0])
		}
	})
	b.Run("brute-force", func(b *testing.B) {
		b.ReportAllocs()
		var buf []int
		for i := 0; i < b.N; i++ {
			buf = buf[:0]
			for j, p := range pts {
				if route.DistToPoint(p) <= radius {
					buf = append(buf, j)
				}
			}
		}
	})
}

// Ablation 6: PUU disjoint batches vs unsafe simultaneous updates — slot
// counts and convergence failures of the no-disjointness variant.
func BenchmarkAblationUnsafeParallel(b *testing.B) {
	in := benchInstance(40, 40)
	for _, cfg := range []struct {
		name    string
		factory engine.PolicyFactory
	}{{"PUU", engine.NewPUU}, {"UPAR-unsafe", engine.NewUnsafeParallel}} {
		b.Run(cfg.name, func(b *testing.B) {
			slots, failures := 0, 0
			for i := 0; i < b.N; i++ {
				res := engine.Run(in, cfg.factory, rng.New(uint64(i)), engine.Config{MaxSlots: 500})
				slots += res.Slots
				if !res.Converged {
					failures++
				}
			}
			b.ReportMetric(float64(slots)/float64(b.N), "slots/run")
			b.ReportMetric(float64(failures)/float64(b.N), "nonconverged/run")
		})
	}
}

// Discrete-event mobility simulation throughput.
func BenchmarkSimDrive(b *testing.B) {
	g := roadnet.GenerateCity(roadnet.DefaultCity(roadnet.GridCity), rng.New(5))
	s := rng.New(6)
	var vehicles []sim.Vehicle
	for len(vehicles) < 50 {
		src := roadnet.NodeID(s.Intn(g.NumNodes()))
		dst := roadnet.NodeID(s.Intn(g.NumNodes()))
		if src == dst {
			continue
		}
		p, err := g.ShortestPath(src, dst, roadnet.ByTime)
		if err != nil {
			b.Fatal(err)
		}
		vehicles = append(vehicles, sim.Vehicle{ID: len(vehicles), Route: p, Depart: s.Uniform(0, 1000)})
	}
	tset := &task.Set{}
	for i := 0; i < 100; i++ {
		n := roadnet.NodeID(s.Intn(g.NumNodes()))
		tset.Tasks = append(tset.Tasks, task.Task{ID: task.ID(i), Pos: g.Pos(n), A: 10})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(g, vehicles, sim.Config{SenseRadius: 100, Tasks: tset}); err != nil {
			b.Fatal(err)
		}
	}
}

// Route diversification cost (the scenario builder's recommender).
func BenchmarkAlternativeRoutes(b *testing.B) {
	g := roadnet.GenerateCity(roadnet.DefaultCity(roadnet.GridCity), rng.New(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := roadnet.NodeID(i % g.NumNodes())
		dst := roadnet.NodeID((i*53 + 31) % g.NumNodes())
		if src == dst {
			continue
		}
		if _, err := g.AlternativeRoutes(src, dst, 5, 0.4); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Routing-engine benchmarks (the BENCH_routing.json families) ---

// BenchmarkRoutingShortestPath pairs the warm-scratch goal-directed engine
// against the frozen one-shot Dijkstra baseline on city-parameterized grids.
func BenchmarkRoutingShortestPath(b *testing.B) {
	for _, v := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("engine/V%d", v), benchcore.ShortestPathEngine(v))
		b.Run(fmt.Sprintf("reference/V%d", v), benchcore.ShortestPathReference(v))
	}
}

// BenchmarkRoutingAlternatives pairs engine route recommendation (k=5,
// penalized diversification) against the reference path.
func BenchmarkRoutingAlternatives(b *testing.B) {
	for _, v := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("engine/V%d", v), benchcore.AlternativeRoutesEngine(v))
		b.Run(fmt.Sprintf("reference/V%d", v), benchcore.AlternativeRoutesReference(v))
	}
}

// BenchmarkScenarioBuild pairs the phase-split parallel scenario builder
// against the frozen sequential baseline at the paper's user-count sweep;
// each iteration starts from cold route caches.
func BenchmarkScenarioBuild(b *testing.B) {
	for _, m := range benchcore.ScenarioBuildMs {
		b.Run(fmt.Sprintf("parallel/M%d", m), benchcore.ScenarioBuildPar(m))
		b.Run(fmt.Sprintf("sequential/M%d", m), benchcore.ScenarioBuildSeq(m))
	}
}
