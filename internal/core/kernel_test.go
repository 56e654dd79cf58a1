package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
	"repro/internal/task"
)

// denseInstance builds a game in the regime of the city scenarios: every
// route covers 50–70 of 100 tasks, so routes overlap heavily and every
// task lies on most users' routes. The Table-2 generator gives about two
// tasks per route and never reaches this regime.
func denseInstance(users int, seed uint64) *Instance {
	s := rng.New(seed)
	cfg := DefaultRandomConfig(users, 100)
	cfg.RoutesMin = 2
	in := RandomInstance(cfg, s.Child())
	for i := range in.Users {
		for r := range in.Users[i].Routes {
			perm := s.Perm(len(in.Tasks))
			tasks := make([]task.ID, s.IntRange(50, 70))
			for j := range tasks {
				tasks[j] = task.ID(perm[j])
			}
			in.Users[i].Routes[r].Tasks = tasks
		}
	}
	return in
}

// checkShareCache asserts the profile's cached shares equal the memo's
// shares at the current counts, bit for bit.
func checkShareCache(t testing.TB, p *Profile) {
	t.Helper()
	for k, n := range p.nk {
		if got, want := p.shareCur[k], p.memo.share(k, n); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("shareCur[%d] = %v, memo share(%d, %d) = %v", k, got, k, n, want)
		}
		if got, want := p.shareNext[k], p.memo.share(k, n+1); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("shareNext[%d] = %v, memo share(%d, %d) = %v", k, got, k, n+1, want)
		}
	}
}

// TestShareCacheTracksCounts drives random SetChoice sequences through a
// sparse and a dense game, past the rebaseEvery boundary, and checks the
// cached shares after construction, densely around each rebase, after
// Clone, and on a mutated clone and its untouched original.
func TestShareCacheTracksCounts(t *testing.T) {
	for _, in := range []*Instance{
		RandomInstance(DefaultRandomConfig(12, 9), rng.New(31)),
		denseInstance(30, 32),
	} {
		s := rng.New(33)
		p := RandomProfile(in, s.Child())
		checkShareCache(t, p)
		moves := rebaseEvery + rebaseEvery/4
		if testing.Short() {
			moves = rebaseEvery + 8
		}
		for m := 1; m <= moves; m++ {
			i := UserID(s.Intn(len(in.Users)))
			p.SetChoice(i, s.Intn(len(in.Users[i].Routes)))
			if r := p.moves; r <= 1 || r >= rebaseEvery-1 || m%97 == 0 {
				checkShareCache(t, p)
			}
		}
		checkShareCache(t, p)

		q := p.Clone()
		checkShareCache(t, q)
		before := append([]float64(nil), p.shareCur...)
		for m := 0; m < 300; m++ {
			i := UserID(s.Intn(len(in.Users)))
			q.SetChoice(i, s.Intn(len(in.Users[i].Routes)))
		}
		checkShareCache(t, q)
		checkShareCache(t, p)
		if !reflect.DeepEqual(before, p.shareCur) {
			t.Fatal("mutating a clone changed the original's cached shares")
		}
	}
}

// deltaReference is ΔP_i evaluated as it was before the share cache and
// the mark-once sweep: every candidate marks both routes afresh, shares
// come from the memo, joins are summed in candidate order and leaves then
// subtracted in current-route order. profitIfReference is ProfitIf the
// same way. The kernel must reproduce both bit for bit.
func deltaReference(p *Profile, i UserID, c int) float64 {
	u := p.inst.Users[int(i)]
	old := p.choices[int(i)]
	if c == old {
		return 0
	}
	cur, cand := u.Routes[old], u.Routes[c]
	inCur, inCand := map[task.ID]bool{}, map[task.ID]bool{}
	for _, k := range cur.Tasks {
		inCur[k] = true
	}
	for _, k := range cand.Tasks {
		inCand[k] = true
	}
	var d float64
	for _, k := range cand.Tasks {
		if !inCur[k] {
			d += p.memo.share(int(k), p.nk[k]+1)
		}
	}
	for _, k := range cur.Tasks {
		if !inCand[k] {
			d -= p.memo.share(int(k), p.nk[k])
		}
	}
	return u.Alpha*d -
		u.Beta*(p.inst.DetourCost(cand)-p.inst.DetourCost(cur)) -
		u.Gamma*(p.inst.CongestionCost(cand)-p.inst.CongestionCost(cur))
}

func profitIfReference(p *Profile, i UserID, c int) float64 {
	u := p.inst.Users[int(i)]
	inCur := map[task.ID]bool{}
	for _, k := range u.Routes[p.choices[int(i)]].Tasks {
		inCur[k] = true
	}
	cand := u.Routes[c]
	var reward float64
	for _, k := range cand.Tasks {
		n := p.nk[k]
		if !inCur[k] {
			n++
		}
		reward += p.memo.share(int(k), n)
	}
	return u.Alpha*reward - u.Beta*p.inst.DetourCost(cand) - u.Gamma*p.inst.CongestionCost(cand)
}

// TestKernelBitIdenticalToReference pins the claim that the cached-share,
// mark-once kernel changes no result bit: along random move sequences on a
// sparse and a dense game, ProfitDeltaIf, Tau, ProfitIf and the gains of
// Evaluator.BestResponses equal the per-candidate reference exactly.
func TestKernelBitIdenticalToReference(t *testing.T) {
	for _, in := range []*Instance{
		RandomInstance(DefaultRandomConfig(40, 30), rng.New(41)),
		denseInstance(40, 42),
	} {
		s := rng.New(43)
		p := RandomProfile(in, s.Child())
		for round := 0; round < 6; round++ {
			ev := p.NewEvaluator()
			for i := range in.Users {
				u := UserID(i)
				for c := range in.Users[i].Routes {
					want := deltaReference(p, u, c)
					if got := p.ProfitDeltaIf(u, c); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("ProfitDeltaIf(%d,%d) = %v, reference %v", i, c, got, want)
					}
					if got := p.Tau(u, c); math.Float64bits(got) != math.Float64bits(want/in.Users[i].Alpha) {
						t.Fatalf("Tau(%d,%d) = %v, reference %v", i, c, got, want/in.Users[i].Alpha)
					}
					if got, want := p.ProfitIf(u, c), profitIfReference(p, u, c); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("ProfitIf(%d,%d) = %v, reference %v", i, c, got, want)
					}
				}
				routes, gains := ev.BestResponses(u)
				for j, c := range routes {
					if want := deltaReference(p, u, c); math.Float64bits(gains[j]) != math.Float64bits(want) {
						t.Fatalf("gain of user %d route %d = %v, reference %v", i, c, gains[j], want)
					}
				}
			}
			for m := 0; m < 50; m++ {
				i := UserID(s.Intn(len(in.Users)))
				p.SetChoice(i, s.Intn(len(in.Users[i].Routes)))
			}
		}
	}
}

// TestDenseKernelMatchesNaive is the differential test of the mark-once
// kernel in the dense regime: on heavily overlapping 50–70-task routes,
// BestResponseSet, BetterResponses, NashGap, Tau, ProfitDeltaIf and
// ProfitIf agree with the naive oracle along a random move sequence, and
// an Evaluator's BestResponses reports gains bit-identical to
// ProfitDeltaIf.
func TestDenseKernelMatchesNaive(t *testing.T) {
	in := denseInstance(40, 7)
	s := rng.New(8)
	p := RandomProfile(in, s.Child())
	o, err := NewNaive(in, p.Choices())
	if err != nil {
		t.Fatal(err)
	}
	rounds := 12
	if testing.Short() {
		rounds = 4
	}
	requesters := 0
	for round := 0; round < rounds; round++ {
		ev := p.NewEvaluator()
		for i := range in.Users {
			u := UserID(i)
			cur := o.Profit(u)
			var better []int
			for c := range in.Users[i].Routes {
				want := o.ProfitIf(u, c)
				if got := p.ProfitIf(u, c); math.Abs(got-want) > Eps {
					t.Fatalf("round %d: ProfitIf(%d,%d) = %v, oracle %v", round, i, c, got, want)
				}
				if got := p.ProfitDeltaIf(u, c); math.Abs(got-(want-cur)) > Eps {
					t.Fatalf("round %d: ProfitDeltaIf(%d,%d) = %v, oracle %v", round, i, c, got, want-cur)
				}
				if got := p.Tau(u, c); math.Abs(got-(want-cur)/in.Users[i].Alpha) > Eps {
					t.Fatalf("round %d: Tau(%d,%d) = %v, oracle %v", round, i, c, got, (want-cur)/in.Users[i].Alpha)
				}
				if c != o.Choice(u) && want-cur > Eps {
					better = append(better, c)
				}
			}
			if got := p.BetterResponses(u); !reflect.DeepEqual(got, better) {
				t.Fatalf("round %d: BetterResponses(%d) = %v, oracle %v", round, i, got, better)
			}
			want := o.BestResponseSet(u)
			if len(want) > 0 {
				requesters++
			}
			if got := p.BestResponseSet(u); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: BestResponseSet(%d) = %v, oracle %v", round, i, got, want)
			}
			routes, gains := ev.BestResponses(u)
			if !reflect.DeepEqual(routes, want) || len(gains) != len(routes) {
				t.Fatalf("round %d: Evaluator.BestResponses(%d) = %v / %v, oracle set %v", round, i, routes, gains, want)
			}
			for j, c := range routes {
				if d := p.ProfitDeltaIf(u, c); math.Float64bits(gains[j]) != math.Float64bits(d) {
					t.Fatalf("round %d: gain of user %d route %d is %v, ProfitDeltaIf %v", round, i, c, gains[j], d)
				}
			}
		}
		if got, want := p.NashGap(), o.NashGap(); math.Abs(got-want) > Eps {
			t.Fatalf("round %d: NashGap = %v, oracle %v", round, got, want)
		}
		// Apply a few best responses so later rounds probe new counts.
		for m := 0; m < 5; m++ {
			i := UserID(s.Intn(len(in.Users)))
			if set := p.BestResponseSet(i); len(set) > 0 {
				c := set[s.Intn(len(set))]
				p.SetChoice(i, c)
				o.SetChoice(i, c)
			}
		}
	}
	if requesters == 0 {
		t.Fatal("degenerate instance: no user ever had a best response to probe")
	}
}
