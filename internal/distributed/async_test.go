package distributed

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

func TestAsyncConvergesToNash(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		in := randomInstance(seed, 10, 14)
		stats, err := RunAsyncInProcess(in, seed*17)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !stats.Converged {
			t.Fatalf("seed %d: not converged", seed)
		}
		p := profileOf(t, in, stats.Choices)
		if !p.IsNash() {
			t.Fatalf("seed %d: async equilibrium is not Nash", seed)
		}
		// Same invariant the core suite asserts: an exact equilibrium has a
		// zero Nash gap (no user can gain more than the tolerance).
		if gap := p.NashGap(); gap > core.Eps {
			t.Fatalf("seed %d: async Nash gap %g > %g", seed, gap, core.Eps)
		}
		if stats.Versions != stats.TotalUpdates+1 {
			t.Errorf("seed %d: versions %d != updates+1 (%d)", seed, stats.Versions, stats.TotalUpdates+1)
		}
		if stats.Grants < stats.TotalUpdates {
			t.Errorf("seed %d: grants %d below updates %d", seed, stats.Grants, stats.TotalUpdates)
		}
	}
}

// TestAsyncPotentialAscendsAndGapCloses ports the engine's Theorem-2 and
// Nash-gap invariants to the asynchronous runtime, with and without fault
// injection: the weighted potential must never decrease across applied
// updates, and the final profile must have a zero Nash gap.
func TestAsyncPotentialAscendsAndGapCloses(t *testing.T) {
	profiles := []struct {
		name string
		prof FaultProfile
	}{
		{"clean", FaultProfile{}},
		{"faulty", FaultProfile{SendErrProb: 0.02, RecvErrProb: 0.02, DupProb: 0.05}},
	}
	for _, fp := range profiles {
		for seed := uint64(0); seed < 4; seed++ {
			in := randomInstance(40+seed, 9, 13)
			var pots []float64
			opts := AsyncRunOptions{
				AgentSeedBase: seed * 31,
				Profile:       fp.prof,
				FaultSeed:     seed,
				Observer: func(o Observation) {
					pots = append(pots, profileOf(t, in, o.Choices).Potential())
				},
			}
			if fp.prof != (FaultProfile{}) {
				opts.Retry = DefaultRetry
			}
			stats, err := RunAsyncInProcessOpts(in, opts)
			if err != nil {
				t.Fatalf("%s seed %d: %v", fp.name, seed, err)
			}
			if !stats.Converged {
				t.Fatalf("%s seed %d: not converged", fp.name, seed)
			}
			if gap := profileOf(t, in, stats.Choices).NashGap(); gap > core.Eps {
				t.Errorf("%s seed %d: final Nash gap %g > %g", fp.name, seed, gap, core.Eps)
			}
			if len(pots) != stats.TotalUpdates+1 {
				t.Errorf("%s seed %d: observer saw %d states for %d updates",
					fp.name, seed, len(pots), stats.TotalUpdates)
			}
			for i := 1; i < len(pots); i++ {
				if pots[i] < pots[i-1]-1e-9 {
					t.Fatalf("%s seed %d: potential decreased at update %d: %g -> %g",
						fp.name, seed, i, pots[i-1], pots[i])
				}
			}
		}
	}
}

func TestAsyncSingleUser(t *testing.T) {
	in := randomInstance(3, 1, 5)
	stats, err := RunAsyncInProcess(in, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatal("single-user async did not converge")
	}
	if !profileOf(t, in, stats.Choices).IsNash() {
		t.Fatal("single-user async not Nash")
	}
}

func TestAsyncMatchesSyncQuality(t *testing.T) {
	// Async and slotted runtimes may reach different equilibria, but both
	// must be Nash on the same instance; compare potentials for sanity.
	in := randomInstance(5, 12, 16)
	async, err := RunAsyncInProcess(in, 3)
	if err != nil {
		t.Fatal(err)
	}
	sync, err := RunInProcess(in, InProcessOptions{
		Platform: PlatformConfig{Policy: SUU, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	pa := profileOf(t, in, async.Choices)
	ps := profileOf(t, in, sync.Choices)
	if !pa.IsNash() || !ps.IsNash() {
		t.Fatal("one of the runtimes missed Nash")
	}
	// Both potentials are local maxima; they must be finite and positive
	// for these instances.
	if pa.Potential() <= 0 || ps.Potential() <= 0 {
		t.Errorf("degenerate potentials: async %v, sync %v", pa.Potential(), ps.Potential())
	}
}

func TestAsyncNoDeadlockUnderContention(t *testing.T) {
	// Many users sharing few tasks: heavy request contention. Guard with a
	// timeout so a protocol deadlock fails fast instead of hanging the
	// suite.
	in := core.RandomInstance(core.RandomConfig{
		Users: 20, Tasks: 5,
		RoutesMin: 2, RoutesMax: 4,
		TasksPerRouteMax: 3,
		AMin:             10, AMax: 20,
		WeightMin: 0.1, WeightMax: 0.9,
		DetourMax: 10, CongestionMax: 10,
	}, rng.New(11))
	done := make(chan error, 1)
	go func() {
		stats, err := RunAsyncInProcess(in, 4)
		if err == nil && !stats.Converged {
			err = errNotConverged
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("async runtime deadlocked under contention")
	}
}

var errNotConverged = &notConvergedError{}

type notConvergedError struct{}

func (*notConvergedError) Error() string { return "did not converge" }

// TestAsyncHonoursOptions checks that the asynchronous protocol honours
// the platform options it shares with the slotted one: every observation
// carries Φ under WithObservePotential, the run stats count the traffic
// the links carried, and the registry given by WithTelemetry records it.
func TestAsyncHonoursOptions(t *testing.T) {
	in := randomInstance(47, 8, 5)
	n := in.NumUsers()
	links := &Counter{}
	platConns := make([]Conn, n)
	agentConns := make([]Conn, n)
	for i := range platConns {
		pc, ac := ChanPair(4 * n)
		platConns[i], agentConns[i] = WithCounter(pc, links), ac
	}
	reg := telemetry.NewRegistry()
	var obs []Observation
	p, err := New(in, platConns, WithAsync(), WithObservePotential(), WithTelemetry(reg),
		WithObserver(func(o Observation) { obs = append(obs, o) }))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			done <- NewAsyncAgent(agentConns[i], AgentConfig{
				User:  i,
				Alpha: in.Users[i].Alpha, Beta: in.Users[i].Beta, Gamma: in.Users[i].Gamma,
				Seed: 7 + uint64(i),
			}).Run()
		}(i)
	}
	stats, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if len(obs) == 0 {
		t.Fatal("observer never invoked")
	}
	for _, o := range obs {
		if !o.PotentialValid {
			t.Fatalf("observation of version %d carries no potential", o.Slot)
		}
		if want := profileOf(t, in, o.Choices).Potential(); o.Potential != want {
			t.Errorf("version %d: potential %g, want %g", o.Slot, o.Potential, want)
		}
	}
	if stats.MessagesSent == 0 || stats.MessagesReceived == 0 {
		t.Fatalf("run counted %d sent, %d received", stats.MessagesSent, stats.MessagesReceived)
	}
	if stats.MessagesSent != links.Sent() || stats.MessagesReceived != links.Recv() {
		t.Errorf("run counted %d/%d sent/received, links carried %d/%d",
			stats.MessagesSent, stats.MessagesReceived, links.Sent(), links.Recv())
	}
	snap := reg.Snapshot()
	if got := snap.Counters["distributed_sent_total"]; got != uint64(stats.MessagesSent) {
		t.Errorf("registry counted %d sent, run %d", got, stats.MessagesSent)
	}
	if got := snap.Counters["distributed_recv_total"]; got != uint64(stats.MessagesReceived) {
		t.Errorf("registry counted %d received, run %d", got, stats.MessagesReceived)
	}
}

// TestAsyncFailingAgentReleasesRun injects unretried send faults on every
// link: some agent or the platform fails early, and the run must return
// that error instead of waiting on a peer that already exited.
func TestAsyncFailingAgentReleasesRun(t *testing.T) {
	in := randomInstance(40, 9, 13)
	for seed := uint64(1); seed <= 20; seed++ {
		done := make(chan error, 1)
		go func() {
			_, err := RunAsyncInProcessOpts(in, AsyncRunOptions{
				AgentSeedBase: seed,
				Profile:       FaultProfile{SendErrProb: 0.3},
				FaultSeed:     seed,
			})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("fault seed %d: run succeeded despite unretried send faults", seed)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("fault seed %d: run still blocked after 5s", seed)
		}
	}
}
