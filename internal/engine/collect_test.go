package engine

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// forceCollectMode runs fn with collectParallelMin pinned so that
// collectRequests takes exactly the requested path regardless of instance
// size, restoring the threshold afterwards.
func forceCollectMode(parallelPath bool, fn func()) {
	saved := collectParallelMin
	if parallelPath {
		collectParallelMin = 1
	} else {
		collectParallelMin = 1 << 30
	}
	defer func() { collectParallelMin = saved }()
	fn()
}

// TestCollectRequestsParallelMatchesSequential is the determinism contract
// of the sharded collect path: for instances large enough to engage the
// parallel evaluation (M ≥ 256), the emitted request sets — users,
// proposed routes, τ_i, and B_i — must be identical, element for element,
// to the sequential path's, and the RNG stream must be consumed the same
// way. Run under -race (make race / make ci) this doubles as the data-race
// regression test for the shard fan-out.
func TestCollectRequestsParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		users, tasks int
		seed         uint64
	}{
		{256, 180, 11},
		{256, 40, 12}, // overlap-heavy: most users share most tasks
		{384, 300, 13},
		{512, 220, 14},
	}
	for _, tc := range cases {
		in := core.RandomInstance(core.DefaultRandomConfig(tc.users, tc.tasks), rng.New(tc.seed))
		p := core.RandomProfile(in, rng.New(tc.seed+1000))
		for _, withMeta := range []bool{false, true} {
			var seq, par []Request
			forceCollectMode(false, func() {
				seq = collectRequests(p, rng.New(7), withMeta)
			})
			forceCollectMode(true, func() {
				par = collectRequests(p, rng.New(7), withMeta)
			})
			if len(seq) == 0 {
				t.Fatalf("M=%d: degenerate case, no requesters", tc.users)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("M=%d withMeta=%v: parallel request set diverges from sequential\nseq: %+v\npar: %+v",
					tc.users, withMeta, seq, par)
			}
			// Identical RNG consumption: the next draw after either path
			// must match.
			s1, s2 := rng.New(7), rng.New(7)
			forceCollectMode(false, func() { collectRequests(p, s1, withMeta) })
			forceCollectMode(true, func() { collectRequests(p, s2, withMeta) })
			if a, b := s1.Intn(1<<30), s2.Intn(1<<30); a != b {
				t.Fatalf("M=%d withMeta=%v: RNG streams diverge after collect (%d vs %d)", tc.users, withMeta, a, b)
			}
		}
	}
}

// TestRunIdenticalAcrossCollectModes runs the full protocol on a
// parallel-sized instance with the threshold forced both ways and asserts
// the runs are indistinguishable: same slots, same updates, same final
// choices.
func TestRunIdenticalAcrossCollectModes(t *testing.T) {
	in := core.RandomInstance(core.DefaultRandomConfig(256, 120), rng.New(21))
	run := func(parallelPath bool) Result {
		var res Result
		forceCollectMode(parallelPath, func() {
			res = Run(in, NewPUU, rng.New(5), Config{MaxSlots: 400})
		})
		return res
	}
	a, b := run(false), run(true)
	if a.Slots != b.Slots || a.Converged != b.Converged || a.TotalUpdates != b.TotalUpdates {
		t.Fatalf("run shape diverged: sequential (slots=%d conv=%v upd=%d) vs parallel (slots=%d conv=%v upd=%d)",
			a.Slots, a.Converged, a.TotalUpdates, b.Slots, b.Converged, b.TotalUpdates)
	}
	if !reflect.DeepEqual(a.Profile.Choices(), b.Profile.Choices()) {
		t.Fatal("final choices diverged between sequential and parallel collect paths")
	}
}

// TestRequestsDoesNotMutate asserts the exported Requests helper is a pure
// observation: the profile's choices and aggregates are unchanged by it.
func TestRequestsDoesNotMutate(t *testing.T) {
	in := core.RandomInstance(core.DefaultRandomConfig(30, 40), rng.New(3))
	p := core.RandomProfile(in, rng.New(4))
	choices := p.Choices()
	phi := p.Potential()
	reqs := Requests(p, rng.New(9), true)
	if len(reqs) == 0 {
		t.Fatal("degenerate profile: no requests")
	}
	if !reflect.DeepEqual(choices, p.Choices()) {
		t.Error("Requests mutated the profile's choices")
	}
	if p.Potential() != phi {
		t.Error("Requests changed the cached potential")
	}
}

// TestRequestsMatchProfileProbes checks each request collectRequests builds
// against the profile's own probes: its route lies in Δ_i, its τ_i is
// bit-identical to Profile.Tau, its B_i equals Profile.MoveTasks, and every
// user with a nonempty Δ_i requests. Every route has a twin whose detour is
// 1e-12 longer, so Δ_i usually holds two routes whose gains differ in their
// last bits and τ_i must come from the drawn route's own gain.
func TestRequestsMatchProfileProbes(t *testing.T) {
	in := core.RandomInstance(core.DefaultRandomConfig(160, 90), rng.New(31))
	for i := range in.Users {
		u := &in.Users[i]
		for _, r := range u.Routes {
			r.Detour += 1e-12
			u.Routes = append(u.Routes, r)
		}
	}
	p := core.RandomProfile(in, rng.New(32))
	for _, parallelPath := range []bool{false, true} {
		var reqs []Request
		forceCollectMode(parallelPath, func() { reqs = collectRequests(p, rng.New(33), true) })
		byUser := map[core.UserID]Request{}
		for _, r := range reqs {
			byUser[r.User] = r
		}
		twins := 0
		for i := range in.Users {
			u := core.UserID(i)
			set := p.BestResponseSet(u)
			r, ok := byUser[u]
			if ok != (len(set) > 0) {
				t.Fatalf("user %d: requested %v with Δ_i = %v", i, ok, set)
			}
			if !ok {
				continue
			}
			if len(set) > 1 {
				twins++
			}
			if !slices.Contains(set, r.Route) {
				t.Fatalf("user %d: route %d not in Δ_i = %v", i, r.Route, set)
			}
			if want := p.Tau(u, r.Route); math.Float64bits(r.Tau) != math.Float64bits(want) {
				t.Fatalf("user %d route %d: τ %v, Profile.Tau %v", i, r.Route, r.Tau, want)
			}
			var want []int
			for _, k := range p.MoveTasks(u, r.Route) {
				want = append(want, int(k))
			}
			if !slices.Equal(r.B, want) || len(r.B) != cap(r.B) {
				t.Fatalf("user %d route %d: B %v (cap %d), MoveTasks %v", i, r.Route, r.B, cap(r.B), want)
			}
		}
		if twins == 0 {
			t.Fatal("degenerate instance: no Δ_i holds two routes")
		}
	}
}
