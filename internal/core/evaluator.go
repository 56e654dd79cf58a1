package core

import "repro/internal/task"

// evalState holds the per-evaluator scratch marks used by delta probes
// (ProfitIf, ProfitDeltaIf, MoveTasks, best/better response computation).
// The profile's own queries run against its embedded evalState; additional
// independent states can be created via Profile.NewEvaluator so that many
// goroutines can probe the same frozen profile concurrently — the probes
// read only choices/nk/the cached shares, which no probe mutates.
//
// Every probe is a sweep: markCurrent marks the probing user's current
// route once, then delta evaluates one candidate against it. The sweeps
// over all of a user's candidates (best/better responses, the Nash gap)
// therefore mark the current route once per user, not once per candidate.
type evalState struct {
	p *Profile

	// cur marks the swept user's current route (epoch curMark); cand marks
	// the candidate under evaluation (epoch candMark). Epochs let both sets
	// be re-marked without clearing.
	cur, cand         []int32
	curMark, candMark int32

	// The user markCurrent prepared and its current route index.
	u   *User
	old int
}

func (e *evalState) init(p *Profile) {
	e.p = p
	e.cur = make([]int32, len(p.inst.Tasks))
	e.cand = make([]int32, len(p.inst.Tasks))
	e.curMark, e.candMark = 0, 0
}

// nextMark advances a scratch epoch; used to mark task sets without
// clearing the whole slice. On wraparound the slice is cleared and the
// epoch restarts at 1.
func nextMark(marks []int32, mark *int32) int32 {
	*mark++
	if *mark == 0 {
		clear(marks)
		*mark = 1
	}
	return *mark
}

// markCurrent starts a sweep over user i's candidates by marking its
// current route.
func (e *evalState) markCurrent(i UserID) {
	p := e.p
	e.u = &p.inst.Users[int(i)]
	e.old = p.choices[int(i)]
	m := nextMark(e.cur, &e.curMark)
	for _, k := range e.u.Routes[e.old].Tasks {
		e.cur[k] = m
	}
}

// delta is the kernel of every probe: the profit change ΔP_i of the
// unilateral move of the user prepared by markCurrent to candidate c,
// evaluated on the symmetric difference of the two routes only. It takes
// one pass over the candidate's tasks, summing the shares of the tasks the
// user would join in candidate order, and one pass over the current route,
// subtracting the shares of the tasks it would leave in current-route
// order:
//
//	ΔP_i = α_i·( Σ_{k∈L'\L} w_k(n_k+1)/(n_k+1) − Σ_{k∈L\L'} w_k(n_k)/n_k )
//	       − β_i·(d(r')−d(r)) − γ_i·(b(r')−b(r)).
func (e *evalState) delta(c int) float64 {
	p, u := e.p, e.u
	cur, cand := &u.Routes[e.old], &u.Routes[c]
	mCur := e.curMark
	mCand := nextMark(e.cand, &e.candMark)
	var d float64
	for _, k := range cand.Tasks {
		e.cand[k] = mCand
		if e.cur[k] != mCur { // k ∈ L'\L: user i would join
			d += p.shareNext[k]
		}
	}
	for _, k := range cur.Tasks {
		if e.cand[k] != mCand { // k ∈ L\L': user i would leave
			d -= p.shareCur[k]
		}
	}
	return u.Alpha*d -
		u.Beta*(p.inst.DetourCost(*cand)-p.inst.DetourCost(*cur)) -
		u.Gamma*(p.inst.CongestionCost(*cand)-p.inst.CongestionCost(*cur))
}

// profitIf is ProfitIf: the absolute profit of user i on candidate c with
// everyone else fixed, summed over the candidate's full task set.
func (e *evalState) profitIf(i UserID, c int) float64 {
	p := e.p
	e.markCurrent(i)
	u := e.u
	cand := u.Routes[c]
	var reward float64
	for _, k := range cand.Tasks {
		if e.cur[k] == e.curMark {
			reward += p.shareCur[k]
		} else {
			reward += p.shareNext[k] // user i joins task k
		}
	}
	return u.Alpha*reward - u.Beta*p.inst.DetourCost(cand) - u.Gamma*p.inst.CongestionCost(cand)
}

// profitDeltaIf is ProfitDeltaIf: a one-candidate sweep.
func (e *evalState) profitDeltaIf(i UserID, c int) float64 {
	if c == e.p.choices[int(i)] {
		return 0
	}
	e.markCurrent(i)
	return e.delta(c)
}

func (e *evalState) betterResponses(i UserID) []int {
	e.markCurrent(i)
	var out []int
	for c := range e.u.Routes {
		if c != e.old && e.delta(c) > Eps {
			out = append(out, c)
		}
	}
	return out
}

func (e *evalState) hasBetterResponse(i UserID) bool {
	e.markCurrent(i)
	for c := range e.u.Routes {
		if c != e.old && e.delta(c) > Eps {
			return true
		}
	}
	return false
}

// bestResponses returns Δ_i and, when gains is non-nil, stores each
// route's ΔP_i in *gains (gains[j] belongs to route j of Δ_i).
func (e *evalState) bestResponses(i UserID, gains *[]float64) []int {
	e.markCurrent(i)
	var best float64 // best improvement so far; 0 = the current choice
	var out []int
	for c := range e.u.Routes {
		if c == e.old {
			continue
		}
		d := e.delta(c)
		switch {
		case d > best+Eps:
			best = d
			out = append(out[:0], c)
			if gains != nil {
				*gains = append((*gains)[:0], d)
			}
		case d > Eps && d >= best-Eps && len(out) > 0:
			out = append(out, c)
			if gains != nil {
				*gains = append(*gains, d)
			}
		}
	}
	return out
}

// gapOf returns the largest profit improvement user i could obtain by a
// unilateral deviation (0 when none improves).
func (e *evalState) gapOf(i UserID) float64 {
	e.markCurrent(i)
	var gap float64
	for c := range e.u.Routes {
		if c == e.old {
			continue
		}
		if d := e.delta(c); d > gap {
			gap = d
		}
	}
	return gap
}

// appendMoveTasks appends B_i for the move i→c to dst: the current route's
// tasks, then the candidate's tasks not already on it.
func (e *evalState) appendMoveTasks(dst []task.ID, i UserID, c int) []task.ID {
	e.markCurrent(i)
	dst = append(dst, e.u.Routes[e.old].Tasks...)
	for _, k := range e.u.Routes[c].Tasks {
		if e.cur[k] != e.curMark {
			dst = append(dst, k)
		}
	}
	return dst
}

// Evaluator answers best-response probes against a profile with its own
// private scratch state. Any number of Evaluators may query the same
// profile concurrently as long as no goroutine mutates the profile (via
// SetChoice) in the meantime — the engine's sharded request collection
// relies on exactly this. Results are bit-identical to the profile's own
// methods: both run the same evalState code over the same memoized table.
type Evaluator struct {
	e evalState
}

// NewEvaluator returns an independent probe context for the profile.
func (p *Profile) NewEvaluator() *Evaluator {
	ev := &Evaluator{}
	ev.e.init(p)
	return ev
}

// BestResponseSet is Profile.BestResponseSet on the evaluator's scratch.
func (ev *Evaluator) BestResponseSet(i UserID) []int { return ev.e.bestResponses(i, nil) }

// BetterResponses is Profile.BetterResponses on the evaluator's scratch.
func (ev *Evaluator) BetterResponses(i UserID) []int { return ev.e.betterResponses(i) }

// ProfitDeltaIf is Profile.ProfitDeltaIf on the evaluator's scratch.
func (ev *Evaluator) ProfitDeltaIf(i UserID, c int) float64 { return ev.e.profitDeltaIf(i, c) }

// BestResponses is BestResponseSet together with each route's profit gain:
// gains[j] is ΔP_i of the move to routes[j], the same value
// ProfitDeltaIf(i, routes[j]) returns. τ_i of a chosen route is its gain
// divided by α_i, so a caller that proposes from Δ_i needs no second probe.
func (ev *Evaluator) BestResponses(i UserID) (routes []int, gains []float64) {
	routes = ev.e.bestResponses(i, &gains)
	return routes, gains
}

// AppendMoveTasks appends B_i for the move i→c (Profile.MoveTasks) to dst
// and returns the extended slice.
func (ev *Evaluator) AppendMoveTasks(dst []task.ID, i UserID, c int) []task.ID {
	return ev.e.appendMoveTasks(dst, i, c)
}

// ProfitIf is Profile.ProfitIf on the evaluator's scratch.
func (ev *Evaluator) ProfitIf(i UserID, c int) float64 { return ev.e.profitIf(i, c) }

// GapOf returns user i's largest unilateral improvement (the per-user term
// of NashGap).
func (ev *Evaluator) GapOf(i UserID) float64 { return ev.e.gapOf(i) }
