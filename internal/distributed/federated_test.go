package distributed

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distributed/federation"
	"repro/internal/wire"
)

// TestFederatedConvergesToNash runs the federation at several shard counts
// and policies; every run must converge to a Nash equilibrium of the full
// game — the shard layout must never change what equilibrium means.
func TestFederatedConvergesToNash(t *testing.T) {
	in := randomInstance(11, 24, 10)
	for _, policy := range []SelectionPolicy{SUU, PUU, Deterministic} {
		for _, shards := range []int{1, 2, 4} {
			stats, err := RunFederatedInProcess(in, FederatedOptions{
				Shards:   shards,
				Platform: PlatformConfig{Policy: policy, Seed: 7},
			}, InProcessOptions{AgentSeedBase: 100, Deterministic: true})
			if err != nil {
				t.Fatalf("%s K=%d: %v", policy, shards, err)
			}
			if !stats.Converged {
				t.Fatalf("%s K=%d: did not converge", policy, shards)
			}
			p := profileOf(t, in, stats.Choices)
			if !p.IsNash() {
				t.Fatalf("%s K=%d: final profile is not Nash (gap %v)", policy, shards, p.NashGap())
			}
			if stats.Shards != shards || len(stats.PerShard) != shards {
				t.Fatalf("%s K=%d: stats report %d shards / %d per-shard entries", policy, shards, stats.Shards, len(stats.PerShard))
			}
		}
	}
}

// TestFederatedMatchesStandalone checks the federation is not a different
// algorithm: with the deterministic policy (and deterministic agents) the
// final profile must be identical to the single-platform run at every
// shard count, and with SUU the shared selection seed must make K=1
// federated reproduce the standalone run exactly.
func TestFederatedMatchesStandalone(t *testing.T) {
	in := randomInstance(3, 20, 8)
	ref, err := RunInProcess(in, InProcessOptions{
		Platform:      PlatformConfig{Policy: Deterministic},
		AgentSeedBase: 55,
		Deterministic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 3, 4} {
		stats, err := RunFederatedInProcess(in, FederatedOptions{
			Shards:   shards,
			Platform: PlatformConfig{Policy: Deterministic},
		}, InProcessOptions{AgentSeedBase: 55, Deterministic: true})
		if err != nil {
			t.Fatalf("K=%d: %v", shards, err)
		}
		for u := range ref.Choices {
			if stats.Choices[u] != ref.Choices[u] {
				t.Fatalf("K=%d: user %d chose route %d, standalone chose %d", shards, u, stats.Choices[u], ref.Choices[u])
			}
		}
		if stats.Slots != ref.Slots || stats.TotalUpdates != ref.TotalUpdates {
			t.Fatalf("K=%d: %d slots / %d updates, standalone %d / %d", shards, stats.Slots, stats.TotalUpdates, ref.Slots, ref.TotalUpdates)
		}
	}

	refSUU, err := RunInProcess(in, InProcessOptions{
		Platform:      PlatformConfig{Policy: SUU, Seed: 99},
		AgentSeedBase: 55,
		Deterministic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	fedSUU, err := RunFederatedInProcess(in, FederatedOptions{
		Shards:   1,
		Platform: PlatformConfig{Policy: SUU, Seed: 99},
	}, InProcessOptions{AgentSeedBase: 55, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	for u := range refSUU.Choices {
		if fedSUU.Choices[u] != refSUU.Choices[u] {
			t.Fatalf("SUU K=1: user %d diverged from standalone (same seed)", u)
		}
	}
}

// TestFederatedGossipExchange checks the replication bookkeeping: every
// round crosses the full mesh (K*(K-1) batches per barrier) and the
// barrier drains all peers (max lag 0 at quiescence).
func TestFederatedGossipExchange(t *testing.T) {
	in := randomInstance(17, 16, 6)
	var mu sync.Mutex
	var shardObs []ShardObservation
	stats, err := RunFederatedInProcess(in, FederatedOptions{
		Shards:   4,
		Platform: PlatformConfig{Policy: PUU, Seed: 1},
		ShardObserver: func(o ShardObservation) {
			mu.Lock()
			shardObs = append(shardObs, o)
			mu.Unlock()
		},
	}, InProcessOptions{AgentSeedBase: 9, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	// Barriers: one after init plus one per committed slot; each crosses
	// 4*3 links.
	wantBatches := (stats.Slots + 1) * 4 * 3
	if stats.GossipBatches != wantBatches {
		t.Errorf("GossipBatches = %d, want %d (%d slots)", stats.GossipBatches, wantBatches, stats.Slots)
	}
	if stats.MaxPeerLag != 0 {
		t.Errorf("MaxPeerLag = %d, want 0 at the barrier", stats.MaxPeerLag)
	}
	if len(shardObs) != stats.Slots*4 {
		t.Errorf("%d shard observations, want %d", len(shardObs), stats.Slots*4)
	}
	for _, o := range shardObs {
		for p, lag := range o.PeerLag {
			if lag != 0 {
				t.Errorf("shard %d slot %d: peer %d lag %d after barrier", o.Shard, o.Slot, p, lag)
			}
		}
	}
}

// TestFederatedObserverPotentialAscent arms the global observer with
// potential evaluation and checks Theorem 2 carries over: the potential
// never decreases across federated rounds.
func TestFederatedObserverPotentialAscent(t *testing.T) {
	in := randomInstance(23, 18, 7)
	var pots []float64
	stats, err := RunFederatedInProcess(in, FederatedOptions{
		Shards: 3,
		Platform: PlatformConfig{
			Policy: PUU, Seed: 3,
			ObservePotential: true,
			Observer: func(o Observation) {
				if !o.PotentialValid {
					t.Error("observation missing potential")
				}
				pots = append(pots, o.Potential)
			},
		},
	}, InProcessOptions{AgentSeedBase: 4, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pots) < 2 {
		t.Fatalf("only %d observations", len(pots))
	}
	for i := 1; i < len(pots); i++ {
		if pots[i] < pots[i-1]-1e-9 {
			t.Fatalf("potential decreased at round %d: %v -> %v", i, pots[i-1], pots[i])
		}
	}
	if !stats.Converged {
		t.Fatal("did not converge")
	}
}

// TestFederatedExplicitPartition runs with an index partition and checks
// per-shard stats line up with ownership.
func TestFederatedExplicitPartition(t *testing.T) {
	in := randomInstance(29, 12, 5)
	part, err := federation.ByIndex(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	var topo federation.Partition
	stats, err := RunFederatedInProcess(in, FederatedOptions{
		Shards:     3,
		Platform:   PlatformConfig{Policy: SUU, Seed: 2},
		Partition:  part,
		OnTopology: func(p federation.Partition) { topo = p },
	}, InProcessOptions{AgentSeedBase: 6, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	if topo.Shards != 3 {
		t.Fatalf("OnTopology saw %d shards", topo.Shards)
	}
	total := 0
	for k := range stats.PerShard {
		total += stats.PerShard[k].TotalUpdates
	}
	if total != stats.TotalUpdates {
		t.Errorf("per-shard updates sum to %d, global says %d", total, stats.TotalUpdates)
	}
	if !profileOf(t, in, stats.Choices).IsNash() {
		t.Fatal("not Nash")
	}
}

// TestFederatedTCP drives a 3-shard federation over real TCP connections
// (the platformd -shards path): agents dial in, get identified by their
// Hello, and the partitioned run must still land on Nash.
func TestFederatedTCP(t *testing.T) {
	in := randomInstance(43, 9, 6)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type out struct {
		stats FederatedStats
		err   error
	}
	var topo federation.Partition
	done := make(chan out, 1)
	go func() {
		stats, err := ServeTCPFederated(ln, in, FederatedOptions{
			Shards:     3,
			Platform:   PlatformConfig{Policy: PUU, Seed: 13},
			OnTopology: func(p federation.Partition) { topo = p },
		})
		done <- out{stats, err}
	}()
	var wg sync.WaitGroup
	agentErrs := make([]error, in.NumUsers())
	for i := 0; i < in.NumUsers(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			agentErrs[i] = DialTCP(ln.Addr().String(), AgentConfig{
				User: i, Alpha: in.Users[i].Alpha, Beta: in.Users[i].Beta,
				Gamma: in.Users[i].Gamma, Seed: uint64(i) + 19,
			})
		}(i)
	}
	wg.Wait()
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	for i, e := range agentErrs {
		if e != nil {
			t.Fatalf("agent %d: %v", i, e)
		}
	}
	if !res.stats.Converged || res.stats.Shards != 3 {
		t.Fatalf("TCP federation: converged=%v shards=%d", res.stats.Converged, res.stats.Shards)
	}
	if topo.Shards != 3 {
		t.Fatalf("OnTopology saw %d shards", topo.Shards)
	}
	if !profileOf(t, in, res.stats.Choices).IsNash() {
		t.Fatal("TCP federation not Nash")
	}
}

// TestFederatedOptionValidation covers the construction errors.
func TestFederatedOptionValidation(t *testing.T) {
	in := randomInstance(31, 6, 4)
	conns := make([]Conn, 6)
	for i := range conns {
		conns[i], _ = ChanPair(1)
	}
	if _, err := RunFederated(in, conns[:3], FederatedOptions{Shards: 2}); err == nil {
		t.Error("conn/user count mismatch accepted")
	}
	bad, _ := federation.ByIndex(6, 2)
	if _, err := RunFederated(in, conns, FederatedOptions{Shards: 3, Partition: bad}); err == nil {
		t.Error("partition/shard count mismatch accepted")
	}
	if _, err := RunFederatedInProcess(in, FederatedOptions{
		Shards:   2,
		Platform: PlatformConfig{Policy: "bogus"},
	}, InProcessOptions{}); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestFederatedNoConvergenceSentinel bounds a run to one slot and checks
// the sentinel error surfaces (benchmarks depend on it).
func TestFederatedNoConvergenceSentinel(t *testing.T) {
	in := randomInstance(37, 20, 8)
	_, err := RunFederatedInProcess(in, FederatedOptions{
		Shards:   2,
		Platform: PlatformConfig{Policy: SUU, MaxSlots: 1, Seed: 5},
	}, InProcessOptions{AgentSeedBase: 8, Deterministic: true})
	if err == nil {
		t.Skip("instance converged in one slot; sentinel not exercised")
	}
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("error %v does not wrap ErrNoConvergence", err)
	}
}

// runFederatedAgents runs RunFederated against one agent goroutine per
// user, with wrap decorating each agent's end of its link. Agents blocked
// on a platform that errored out are released by closing the platform
// ends.
func runFederatedAgents(in *core.Instance, fopts FederatedOptions, wrap func(u int, c Conn) Conn) (FederatedStats, error) {
	n := in.NumUsers()
	platConns := make([]Conn, n)
	var wg sync.WaitGroup
	for u := 0; u < n; u++ {
		pc, ac := ChanPair(16)
		platConns[u] = pc
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			NewAgent(wrap(u, ac), AgentConfig{
				User: u, Alpha: in.Users[u].Alpha, Beta: in.Users[u].Beta, Gamma: in.Users[u].Gamma,
				Seed: 1 + uint64(u),
			}).Run()
		}(u)
	}
	stats, err := RunFederated(in, platConns, fopts)
	if err != nil {
		for _, c := range platConns {
			c.Close()
		}
	}
	wg.Wait()
	return stats, err
}

// sendHook is an agent-side Conn that lets a test rewrite outgoing
// messages.
type sendHook struct {
	Conn
	rewrite func(m *wire.Message) *wire.Message
}

func (c *sendHook) Send(m *wire.Message) error { return c.Conn.Send(c.rewrite(m)) }

// TestFederatedObserverReportsAppliedDecisions declines one granted update
// on the wire — the agent's first post-init Decision is rewritten to the
// route the platform has on record, as a restarted agent does — and checks
// the global observer reports the applied profile, not the requested one.
func TestFederatedObserverReportsAppliedDecisions(t *testing.T) {
	in := nodeTestInstance()
	var mu sync.Mutex
	declinedUser, declinedSlot, keptRoute := -1, -1, -1
	current := make([]int, in.NumUsers())
	wrap := func(u int, c Conn) Conn {
		return &sendHook{Conn: c, rewrite: func(m *wire.Message) *wire.Message {
			if m.Kind != wire.KindDecision {
				return m
			}
			mu.Lock()
			defer mu.Unlock()
			if m.Decision.Slot >= 1 && declinedUser < 0 {
				declinedUser, declinedSlot, keptRoute = u, m.Decision.Slot, current[u]
				cp := *m
				cp.Decision = &wire.Decision{Slot: m.Decision.Slot, Route: current[u]}
				return &cp
			}
			current[u] = m.Decision.Route
			return m
		}}
	}
	var obs []Observation
	stats, err := runFederatedAgents(in, FederatedOptions{
		Shards: 2,
		Platform: PlatformConfig{
			Policy: Deterministic, Seed: 1, ObservePotential: true,
			Observer: func(o Observation) { obs = append(obs, o) },
		},
	}, wrap)
	if err != nil {
		t.Fatal(err)
	}
	if declinedUser < 0 {
		t.Fatal("no grant was declined")
	}
	var round *Observation
	for i := range obs {
		if obs[i].Slot == declinedSlot {
			round = &obs[i]
		}
	}
	if round == nil {
		t.Fatalf("no observation for slot %d", declinedSlot)
	}
	if len(round.GrantedUsers) != 1 || round.GrantedUsers[0] != declinedUser {
		t.Fatalf("slot %d granted %v, want [%d]", declinedSlot, round.GrantedUsers, declinedUser)
	}
	if got := round.Choices[declinedUser]; got != keptRoute {
		t.Errorf("slot %d observed user %d on route %d, but the grant was declined (route %d)", declinedSlot, declinedUser, got, keptRoute)
	}
	last := obs[len(obs)-1]
	for u := range stats.Choices {
		if last.Choices[u] != stats.Choices[u] {
			t.Fatalf("last observation has user %d on route %d, stats.Choices has %d", u, last.Choices[u], stats.Choices[u])
		}
	}
	if want := profileOf(t, in, stats.Choices).Potential(); !last.PotentialValid || last.Potential != want {
		t.Errorf("last observation Φ = %v (valid %v), profile of stats.Choices has Φ = %v", last.Potential, last.PotentialValid, want)
	}
}

// TestFederatedShardFailureFailsFast makes one shard's agent break the
// protocol (a Decision where its slot-1 Request is due; slot 1 queries
// every user, later slots only those whose view changed) and checks the
// federation returns that shard's error promptly — its peers must not
// wait out a peer timeout — and leaves no goroutine behind.
func TestFederatedShardFailureFailsFast(t *testing.T) {
	in := nodeTestInstance()
	for _, K := range []int{2, 4} {
		part, err := federation.Spatial(in, K)
		if err != nil {
			t.Fatal(err)
		}
		bad := part.Owned[K-1][0]
		wrap := func(u int, c Conn) Conn {
			if u != bad {
				return c
			}
			return &sendHook{Conn: c, rewrite: func(m *wire.Message) *wire.Message {
				if m.Kind == wire.KindRequest && m.Request.Slot == 1 {
					return &wire.Message{Kind: wire.KindDecision, Decision: &wire.Decision{Slot: 1}}
				}
				return m
			}}
		}
		before := runtime.NumGoroutine()
		start := time.Now()
		_, err = runFederatedAgents(in, FederatedOptions{
			Shards:   K,
			Platform: PlatformConfig{Policy: PUU, Seed: 1},
		}, wrap)
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("K=%d: failing shard took %v to stop the federation", K, elapsed)
		}
		if err == nil {
			t.Fatalf("K=%d: protocol violation by user %d went unnoticed", K, bad)
		}
		if want := fmt.Sprintf("shard %d: distributed: user %d sent decision, want request", K-1, bad); !strings.Contains(err.Error(), want) {
			t.Errorf("K=%d: error %q does not report the violation (%q)", K, err, want)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			buf := make([]byte, 1<<16)
			t.Errorf("K=%d: %d goroutines after the run, %d before:\n%s", K, n, before, buf[:runtime.Stack(buf, true)])
		}
	}
}
