package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// sampler polls the live heap after GC and the goroutine count while a
// run is in flight, keeping their maxima.
type sampler struct {
	done     chan struct{}
	wg       sync.WaitGroup
	mu       sync.Mutex
	heap, gr uint64
}

var sampleNames = []string{"/gc/heap/live:bytes", "/sched/goroutines:goroutines"}

func startSampler() *sampler {
	s := &sampler{done: make(chan struct{})}
	s.sample()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *sampler) sample() {
	ms := make([]metrics.Sample, len(sampleNames))
	for i, n := range sampleNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	s.mu.Lock()
	defer s.mu.Unlock()
	if ms[0].Value.Kind() == metrics.KindUint64 {
		s.heap = max(s.heap, ms[0].Value.Uint64())
	}
	if ms[1].Value.Kind() == metrics.KindUint64 {
		s.gr = max(s.gr, ms[1].Value.Uint64())
	}
}

// stop ends sampling and returns the peak live heap (bytes) and the peak
// goroutine count.
func (s *sampler) stop() (heap, goroutines uint64) {
	close(s.done)
	s.wg.Wait()
	s.sample()
	return s.heap, s.gr
}

// registryLayer adds the per-layer metrics read from the process-wide
// telemetry registry (routing, engine request collection, parallel
// fan-out) as deltas over one run.
func registryLayer(layer map[string]float64, before, after telemetry.Snapshot) {
	dc := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	dh := func(name string) float64 { return after.Histograms[name].Sum - before.Histograms[name].Sum }
	hits, misses := dc("roadnet_route_cache_hits_total"), dc("roadnet_route_cache_misses_total")
	layer["roadnet.route_queries"] = dc("roadnet_route_queries_total")
	layer["roadnet.route_cache_hit_ratio"] = ratio(hits, hits+misses)
	layer["roadnet.route_query_s"] = dh("roadnet_route_query_seconds")
	layer["engine.collect_s"] = dh("engine_collect_duration_seconds")
	layer["parallel.task_s"] = dh("parallel_task_duration_seconds")
}

// metricDef is one reported metric.
type metricDef struct {
	name string
	unit string
}

// endToEnd lists the end-to-end metrics every untraced run reports.
var endToEnd = []metricDef{
	{"tte_s", "s"},
	{"setup_s", "s"},
	{"solve_s", "s"},
	{"rounds_per_sec", "1/s"},
	{"slot_p50_ms", "ms"},
	{"slot_p90_ms", "ms"},
	{"slots", "count"},
	{"peak_heap_mb", "MB"},
	{"certified_ratio", "ratio"},
}

// perLayer lists the per-layer metrics every traced run reports. A metric
// of a layer a workload does not use reads 0.
var perLayer = []metricDef{
	{"trace.generate_s", "s"},
	{"experiments.world_s", "s"},
	{"experiments.scenario_build_s", "s"},
	{"roadnet.route_queries", "count"},
	{"roadnet.route_cache_hit_ratio", "ratio"},
	{"roadnet.route_query_s", "s"},
	{"core.decode_s", "s"},
	{"core.certify_s", "s"},
	{"engine.run_s", "s"},
	{"engine.slot_s", "s"},
	{"engine.collect_s", "s"},
	{"engine.requesters_per_slot", "count"},
	{"engine.grant_ratio", "ratio"},
	{"parallel.task_s", "s"},
	{"distributed.new_s", "s"},
	{"distributed.init_s", "s"},
	{"distributed.slot_loop_s", "s"},
	{"distributed.broadcast_ms", "ms"},
	{"distributed.collect_ms", "ms"},
	{"distributed.commit_ms", "ms"},
	{"distributed.selection_s", "s"},
	{"distributed.request_ratio", "ratio"},
	{"distributed.grant_ratio", "ratio"},
	{"agent.busy_s", "s"},
	{"agent.slot_max_ms", "ms"},
	{"wire.msgs", "count"},
	{"wire.bytes", "B"},
	{"wire.bytes_per_msg", "B"},
	{"wire.msgs_per_user", "count"},
	{"wire.bytes_per_user", "B"},
	{"wire.write_wait_s", "s"},
	{"federation.gossip_batches", "count"},
	{"federation.gossip_bytes", "B"},
	{"federation.gossip_wait_s", "s"},
	{"federation.round_skew_ms", "ms"},
	{"federation.max_peer_lag", "count"},
	{"peerlink.reconnects", "count"},
	{"peerlink.max_lag", "count"},
	{"node.round_skew_ms", "ms"},
	{"runtime.gc_pause_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.goroutines_peak", "count"},
	{"trace.coverage_ratio", "ratio"},
	{"trace.spans", "count"},
	{"tracing.overhead_ratio", "ratio"},
}
