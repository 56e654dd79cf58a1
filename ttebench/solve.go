package main

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/distributed/federation"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// This file drives the four runtimes. Each solve starts at the runtime's
// entry call and returns once the platform(s) and every agent have
// returned, leaving slot marks, link counters and (traced) spans in a
// solveOut.

func solve(w workload, in *core.Instance, s *rng.Stream, clk *clock, traced bool) solveOut {
	switch w.Kind {
	case kindEngine:
		return solveEngine(w, in, s, clk, traced)
	case kindSync:
		return solveSync(w, in, s, clk, traced)
	case kindFed:
		return solveFed(w, in, s, clk, traced)
	default:
		return solveNode(w, in, s, clk, traced)
	}
}

// solveEngine drives the engine's slot loop one slot per RunFrom call so
// every slot is timed from outside. RunFrom with MaxSlots 1 runs exactly
// one SelectAndUpdate on the shared stream, so the trajectory is the one
// engine.Run would produce from the same stream.
func solveEngine(w workload, in *core.Instance, s *rng.Stream, clk *clock, traced bool) solveOut {
	var so solveOut
	var reg *telemetry.Registry
	if traced {
		reg = telemetry.NewRegistry()
	}
	start := clk.now()
	prof := core.RandomProfile(in, s.Child())
	ss := s.Child()
	so.loopStart = clk.now()
	so.slotEnds = []int64{so.loopStart}
	so.slotStarts = []int64{start}
	if traced {
		so.potentials = append(so.potentials, prof.Potential())
	}
	cfg := engine.Config{MaxSlots: 1, Telemetry: reg}
	for slot := 1; ; slot++ {
		t0 := clk.now()
		res := engine.RunFrom(prof, engine.NewPUU, ss, cfg)
		t1 := clk.now()
		so.slotStarts = append(so.slotStarts, t0)
		so.slotEnds = append(so.slotEnds, t1)
		if res.Converged {
			so.converged = true
			break
		}
		so.slots = slot
		if traced {
			so.potentials = append(so.potentials, prof.Potential())
		}
		if slot >= w.MaxSlots {
			break
		}
	}
	so.loopEnd = clk.now()
	// The converging call is the closing slot, not a decision slot.
	so.slotStarts = so.slotStarts[:len(so.slotStarts)-1]
	so.slotEnds = so.slotEnds[:len(so.slotEnds)-1]
	so.choices = prof.Choices()
	if traced {
		snap := reg.Snapshot()
		h := snap.Histograms["engine_slot_duration_seconds"]
		req := float64(snap.Counters["engine_requesters_total"])
		upd := float64(snap.Counters["engine_updates_total"])
		slots := float64(snap.Counters["engine_slots_total"])
		so.layer = map[string]float64{
			"engine.run_s":               time.Duration(so.loopEnd - start).Seconds(),
			"engine.slot_s":              h.Sum,
			"engine.requesters_per_slot": ratio(req, slots),
			"engine.grant_ratio":         ratio(upd, req),
		}
	}
	return so
}

// agentSide holds the agent ends of one run's links and the agents'
// results.
type agentSide struct {
	links []*agentLink
	plat  []*netMeter // platform ends
	wg    sync.WaitGroup
	errs  []error
	runs  []rawSpan
	// totals filled by finish
	lastInit, infos, updates, grants, busy, writeWait int64
}

// newAgentSide makes one byte-stream link per user.
func newAgentSide(n int, clk *clock, traced bool, maxSlots int) *agentSide {
	a := &agentSide{links: make([]*agentLink, n), plat: make([]*netMeter, n), errs: make([]error, n)}
	var marks *slotMarks
	if traced {
		marks = newSlotMarks(maxSlots)
		a.runs = make([]rawSpan, n)
	}
	for i := range a.links {
		ae, pe := pipePair()
		l := &agentLink{Conn: distributed.NewNetConn(ae), net: ae, clock: clk, marks: marks}
		if traced {
			l.spans = &spanBuf{}
		}
		a.links[i] = l
		a.plat[i] = pe
	}
	return a
}

// platConns wraps the platform ends in the binary codec.
func (a *agentSide) platConns() []distributed.Conn {
	out := make([]distributed.Conn, len(a.plat))
	for i, p := range a.plat {
		out[i] = distributed.NewNetConn(p)
	}
	return out
}

// start runs one agent goroutine per user.
func (a *agentSide) start(in *core.Instance, seedBase uint64) {
	for i, l := range a.links {
		u := in.Users[i]
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			t0 := l.clock.now()
			a.errs[i] = distributed.NewAgent(l, distributed.AgentConfig{
				User: i, Alpha: u.Alpha, Beta: u.Beta, Gamma: u.Gamma, Seed: seedBase + uint64(i),
			}).Run()
			if a.runs != nil {
				a.runs[i] = rawSpan{name: nameAgentRun, start: t0, end: l.clock.now()}
			}
		}()
	}
}

// finish closes every platform end (unblocking agents of a failed run),
// waits for the agents, and totals the link counters into so.
func (a *agentSide) finish(so *solveOut) {
	for _, p := range a.plat {
		p.Close()
	}
	a.wg.Wait()
	var infos, updates, grants, busy, writeWait int64
	var firstInfo int64 = -1
	var lastInit int64
	for i, l := range a.links {
		if a.errs[i] != nil && so.err == nil {
			so.err = fmt.Errorf("agent %d: %w", i, a.errs[i])
		}
		so.linkSent += l.sent
		so.linkRecv += l.recvd
		so.bytes += l.net.read.Load() + l.net.written.Load()
		infos += int64(l.slotInfos)
		updates += int64(l.updates)
		grants += int64(l.grants)
		busy += l.busy
		writeWait += a.plat[i].writeWait.Load()
		if l.firstInfo > 0 && (firstInfo < 0 || l.firstInfo < firstInfo) {
			firstInfo = l.firstInfo
		}
		lastInit = max(lastInit, l.initAt)
		if l.spans != nil {
			so.spans = append(so.spans, l.spans)
		}
	}
	so.msgs = int64(so.linkSent + so.linkRecv)
	if so.loopStart == 0 {
		so.loopStart = firstInfo
	}
	a.lastInit, a.infos, a.updates, a.grants, a.busy, a.writeWait = lastInit, infos, updates, grants, busy, writeWait
}

// layer derives the distributed and wire per-layer metrics of a traced
// run from the link counters and slot marks; call it once so.slotEnds is
// final.
func (a *agentSide) layer(so *solveOut) {
	if a.runs == nil {
		return
	}
	so.marks = a.links[0].marks
	so.solveChildren = append(so.solveChildren, a.runs...)
	m := so.marks
	// Slots with a closing mark; a failed run may stop mid-slot.
	n := min(so.slots, len(so.slotEnds)-1, len(m.lastReq)-1)
	var agentMax []float64
	for s := 1; s <= n; s++ {
		agentMax = append(agentMax, ms(m.agentMax[s].Load()))
	}
	phase := func(f func(s int) int64) float64 {
		var xs []float64
		for s := 1; s <= n; s++ {
			if d := f(s); d >= 0 {
				xs = append(xs, ms(d))
			}
		}
		return median(xs)
	}
	if so.layer == nil {
		so.layer = map[string]float64{}
	}
	l := so.layer
	l["distributed.init_s"] = time.Duration(a.lastInit - so.solveStart).Seconds()
	l["distributed.slot_loop_s"] = time.Duration(so.loopEnd - so.loopStart).Seconds()
	l["distributed.broadcast_ms"] = phase(func(s int) int64 { return m.lastInfo[s].Load() - so.slotEnds[s-1] })
	l["distributed.collect_ms"] = phase(func(s int) int64 { return m.lastReq[s].Load() - m.lastInfo[s].Load() })
	l["distributed.commit_ms"] = phase(func(s int) int64 { return so.slotEnds[s] - m.lastReq[s].Load() })
	l["distributed.request_ratio"] = ratio(float64(a.updates), float64(a.infos))
	l["distributed.grant_ratio"] = ratio(float64(a.grants), float64(a.updates))
	l["agent.busy_s"] = time.Duration(a.busy).Seconds()
	l["agent.slot_max_ms"] = median(agentMax)
	l["wire.msgs"] = float64(so.msgs)
	l["wire.bytes"] = float64(so.bytes)
	l["wire.bytes_per_msg"] = ratio(float64(so.bytes), float64(so.msgs))
	l["wire.msgs_per_user"] = ratio(float64(so.msgs), float64(len(a.links)))
	l["wire.bytes_per_user"] = ratio(float64(so.bytes), float64(len(a.links)))
	l["wire.write_wait_s"] = time.Duration(a.writeWait).Seconds()
}

// slotObserver records the global per-slot marks (Observer callbacks) of
// the standalone platform and the in-process federation.
type slotObserver struct {
	clk    *clock
	so     *solveOut
	traced bool
	spans  spanBuf
}

func (o *slotObserver) observe(ob distributed.Observation) {
	t0 := o.clk.now()
	if ob.Slot == 0 {
		o.so.loopStart = t0
	}
	o.so.slotEnds = append(o.so.slotEnds, t0)
	if ob.PotentialValid {
		o.so.potentials = append(o.so.potentials, ob.Potential)
	}
	if o.traced {
		o.spans.add(nameObserver, ob.Slot, t0, o.clk.now())
	}
}

// platformConfig is the platform configuration every distributed
// workload shares; obs, when non-nil, becomes the slot observer (and
// turns on potential observation in traced runs).
func platformConfig(w workload, s *rng.Stream, reg *telemetry.Registry, obs *slotObserver) distributed.PlatformConfig {
	cfg := distributed.PlatformConfig{
		Policy:    w.Policy,
		MaxSlots:  w.MaxSlots,
		Seed:      uint64(s.Intn(1 << 62)),
		Telemetry: reg,
	}
	if obs != nil {
		cfg.Observer, cfg.ObservePotential = obs.observe, obs.traced
	}
	return cfg
}

// solveSync runs the standalone slot-synchronous platform.
func solveSync(w workload, in *core.Instance, s *rng.Stream, clk *clock, traced bool) solveOut {
	var so solveOut
	so.solveStart = clk.now()
	reg := telemetry.NewRegistry()
	obs := &slotObserver{clk: clk, so: &so, traced: traced}
	cfg := platformConfig(w, s, reg, obs)
	side := newAgentSide(in.NumUsers(), clk, traced, w.MaxSlots)
	t0 := clk.now()
	plat, err := distributed.New(in, side.platConns(), distributed.WithConfig(cfg))
	t1 := clk.now()
	var stats distributed.RunStats
	if err == nil {
		side.start(in, uint64(s.Intn(1<<40)))
		stats, err = plat.Run()
	}
	so.loopEnd = clk.now()
	so.err = err
	side.finish(&so)
	so.converged, so.choices, so.slots = stats.Converged, stats.Choices, stats.Slots
	so.checkMsgs, so.platSent, so.platRecv = true, stats.MessagesSent, stats.MessagesReceived
	side.layer(&so)
	if traced {
		snap := reg.Snapshot()
		so.layer["distributed.new_s"] = time.Duration(t1 - t0).Seconds()
		so.layer["distributed.selection_s"] = snap.Histograms["distributed_selection_seconds"].Sum
		so.spans = append(so.spans, &obs.spans)
	}
	return so
}

// solveFed runs the in-process federation with benchmark-supplied
// byte-stream gossip links.
func solveFed(w workload, in *core.Instance, s *rng.Stream, clk *clock, traced bool) solveOut {
	var so solveOut
	so.solveStart = clk.now()
	reg := telemetry.NewRegistry()
	obs := &slotObserver{clk: clk, so: &so, traced: traced}
	cfg := platformConfig(w, s, reg, obs)
	side := newAgentSide(in.NumUsers(), clk, traced, w.MaxSlots)
	var glMu sync.Mutex
	var gossip []*gossipLink
	links := func(a, b int) (distributed.Conn, distributed.Conn, error) {
		x, y := net.Pipe()
		mk := func(c net.Conn) *gossipLink {
			nm := &netMeter{Conn: c}
			g := &gossipLink{Conn: distributed.NewNetConn(nm), net: nm, clock: clk}
			if traced {
				g.sendSpans, g.recvSpans = &spanBuf{}, &spanBuf{}
			}
			return g
		}
		ga, gb := mk(x), mk(y)
		glMu.Lock()
		gossip = append(gossip, ga, gb)
		glMu.Unlock()
		return ga, gb, nil
	}
	shard := newShardMarks(w.Shards, clk, traced)
	side.start(in, uint64(s.Intn(1<<40)))
	stats, err := distributed.RunFederated(in, side.platConns(), distributed.FederatedOptions{
		Shards:        w.Shards,
		Platform:      cfg,
		GossipLinks:   links,
		ShardObserver: shard.observe,
	})
	so.loopEnd = clk.now()
	so.err = err
	side.finish(&so)
	so.converged, so.choices, so.slots = stats.Converged, stats.Choices, stats.Slots
	so.checkMsgs, so.platSent, so.platRecv = true, stats.MessagesSent, stats.MessagesReceived
	side.layer(&so)
	if traced {
		var gbytes, wait int64
		for _, g := range gossip {
			gbytes += g.net.written.Load()
			wait += g.recvWait.Load()
			so.spans = append(so.spans, g.sendSpans, g.recvSpans)
		}
		so.spans = append(so.spans, &obs.spans, &shard.spans)
		so.layer["distributed.selection_s"] = 0
		so.layer["federation.gossip_batches"] = float64(stats.GossipBatches)
		so.layer["federation.gossip_bytes"] = float64(gbytes)
		so.layer["federation.gossip_wait_s"] = time.Duration(wait).Seconds()
		so.layer["federation.round_skew_ms"] = shard.skewMS()
		so.layer["federation.max_peer_lag"] = float64(max(stats.MaxPeerLag, shard.maxLag))
	}
	return so
}

// shardMarks records per-shard round completions (ShardObserver) and,
// for multi-node runs, the peer-link status (PeerObserver).
type shardMarks struct {
	clk    *clock
	traced bool
	mu     sync.Mutex
	at     []map[int]int64 // at[k][slot]
	maxLag int
	reconn int
	spans  spanBuf
}

func newShardMarks(k int, clk *clock, traced bool) *shardMarks {
	m := &shardMarks{clk: clk, traced: traced, at: make([]map[int]int64, k)}
	for i := range m.at {
		m.at[i] = map[int]int64{}
	}
	return m
}

func (m *shardMarks) observe(o distributed.ShardObservation) {
	t0 := m.clk.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.at[o.Shard][o.Slot] = t0
	for _, l := range o.PeerLag {
		m.maxLag = max(m.maxLag, l)
	}
	if m.traced {
		m.spans.add(nameShardObserver, o.Slot, t0, m.clk.now())
	}
}

func (m *shardMarks) peer(st distributed.PeerStatus) {
	t0 := m.clk.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.maxLag = max(m.maxLag, st.Lag)
	m.reconn = max(m.reconn, st.Reconnects)
	if m.traced {
		m.spans.add(namePeerObserver, -1, t0, m.clk.now())
	}
}

// roundEnds returns, for slots 1..n, the time the last shard finished the
// slot.
func (m *shardMarks) roundEnds(n int) []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int64, n+1)
	for s := 1; s <= n; s++ {
		for _, at := range m.at {
			out[s] = max(out[s], at[s])
		}
	}
	return out
}

// skewMS is the median over slots of the spread between the first and the
// last shard finishing the slot.
func (m *shardMarks) skewMS() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var xs []float64
	for s := range m.at[0] {
		lo, hi := int64(-1), int64(0)
		for _, at := range m.at {
			t, ok := at[s]
			if !ok {
				lo = -1
				break
			}
			if lo < 0 || t < lo {
				lo = t
			}
			hi = max(hi, t)
		}
		if lo >= 0 {
			xs = append(xs, ms(hi-lo))
		}
	}
	return median(xs)
}

// solveNode runs two ServeNode peers in this process. Their peer mesh is
// the one loopback TCP connection of the benchmark; agents reach each
// node through an in-memory listener.
func solveNode(w workload, in *core.Instance, s *rng.Stream, clk *clock, traced bool) solveOut {
	var so solveOut
	so.solveStart = clk.now()
	K := w.Shards
	part, err := federation.Spatial(in, K)
	if err != nil {
		so.err = err
		return so
	}
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		so.err = fmt.Errorf("peer listener: %w", err)
		return so
	}
	peerLn := &countingListener{Listener: tcp}
	addrs := make([]string, K)
	peerLns := make([]net.Listener, K)
	agentLns := make([]*pipeListener, K)
	for k := range addrs {
		agentLns[k] = newPipeListener(fmt.Sprintf("agents-%d", k), len(part.Owned[k]))
		if k == 0 {
			addrs[k], peerLns[k] = tcp.Addr().String(), peerLn
			continue
		}
		// Higher shards only dial; their listeners never see a peer.
		name := fmt.Sprintf("peers-%d", k)
		addrs[k], peerLns[k] = name, newPipeListener(name, 1)
	}
	cfg := platformConfig(w, s, telemetry.NewRegistry(), nil) // ServeNode runs headless
	shard := newShardMarks(K, clk, traced)
	side := newAgentSide(in.NumUsers(), clk, traced, w.MaxSlots)
	for u, p := range side.plat {
		agentLns[part.Assign[u]].push(p)
	}
	stats := make([]distributed.NodeStats, K)
	errs := make([]error, K)
	var nodes sync.WaitGroup
	for k := 0; k < K; k++ {
		nodes.Add(1)
		go func() {
			defer nodes.Done()
			stats[k], errs[k] = distributed.ServeNode(agentLns[k], peerLns[k], in, distributed.NodeOptions{
				Shard: k, Shards: K, PeerAddrs: addrs, Platform: cfg,
				PeerTimeout:   60 * time.Second,
				ShardObserver: shard.observe,
				PeerObserver:  shard.peer,
			})
		}()
	}
	side.start(in, uint64(s.Intn(1<<40)))
	nodes.Wait()
	so.loopEnd = clk.now()
	for k, e := range errs {
		if e != nil && so.err == nil {
			so.err = fmt.Errorf("node %d: %w", k, e)
		}
	}
	side.finish(&so)
	so.converged = true
	so.choices = make([]int, in.NumUsers())
	for u := range so.choices {
		so.choices[u] = -1
	}
	for _, st := range stats {
		so.converged = so.converged && st.Converged
		so.slots = max(so.slots, st.Slots)
		so.nodeCounts = append(so.nodeCounts, st.Counts)
		for u, c := range st.Choices {
			if c >= 0 && u < len(so.choices) {
				so.choices[u] = c
			}
		}
	}
	// ServeNode leaves NodeStats.MessagesSent/Received at 0 (see
	// README.md), so the link totals cannot be cross-checked here.
	so.checkMsgs = false
	if traced && so.err == nil {
		// The nodes run headless, so Φ is replayed from the Decisions the
		// agents sent on the benchmark's links.
		decisions := make([][]wire.Decision, len(side.links))
		for u, l := range side.links {
			decisions[u] = l.decisions
		}
		pots, final, err := replayPotentials(in, decisions, so.slots)
		switch {
		case err != nil:
			so.err = err
		case !slices.Equal(final, so.choices):
			so.err = fmt.Errorf("replayed decisions end at other choices than the nodes report")
		default:
			so.potentials = pots
		}
	}
	ends := shard.roundEnds(so.slots)
	ends[0] = so.loopStart
	so.slotEnds = ends
	var peerBytes int64
	so.osConns, peerBytes = peerLn.connStats()
	side.layer(&so)
	if traced {
		var gossip int
		for _, st := range stats {
			gossip += st.GossipBatches
		}
		so.spans = append(so.spans, &shard.spans)
		so.layer["distributed.selection_s"] = 0
		so.layer["federation.gossip_batches"] = float64(gossip)
		so.layer["federation.gossip_bytes"] = float64(peerBytes)
		so.layer["federation.max_peer_lag"] = float64(shard.maxLag)
		so.layer["peerlink.reconnects"] = float64(shard.reconn)
		so.layer["peerlink.max_lag"] = float64(shard.maxLag)
		so.layer["node.round_skew_ms"] = shard.skewMS()
	}
	return so
}
