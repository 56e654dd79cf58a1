package main

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/wire"
)

// outcome is what one solve hands the invariant checker.
type outcome struct {
	converged bool
	choices   []int
	// potentials is the per-slot weighted potential Φ (traced runs only;
	// empty when the runtime cannot observe it).
	potentials []float64
	// nodeCounts holds each multi-node shard's final replicated count
	// vector (sparse-node-det only).
	nodeCounts [][]int
	// platSent/platRecv are the platform-side message totals the runtime
	// reported (RunStats); linkSent/linkRecv are the agent-side totals the
	// benchmark counted on its own links. checkMsgs is false where the
	// runtime does not populate its totals.
	checkMsgs          bool
	platSent, platRecv int
	linkSent, linkRecv int
}

// certificate is the recomputed equilibrium evidence for one run.
type certificate struct {
	nashGap float64
	welfare float64
	covered int
}

// certify rebuilds the profile from the final choices and computes its
// Nash gap, welfare Σ P_i and task coverage. This is the timed
// certification step.
func certify(in *core.Instance, choices []int) (certificate, error) {
	p, err := core.NewProfile(in, choices)
	if err != nil {
		return certificate{}, fmt.Errorf("certify: %w", err)
	}
	return certificate{nashGap: p.NashGap(), welfare: p.TotalProfit(), covered: p.CoveredTasks()}, nil
}

// checkRun lists every invariant the run violates: no convergence, a
// nonzero Nash gap recomputed from the final choices, a potential that
// fell between slots, replicated counts that differ across nodes or from
// a recount of the merged choices, and link message totals that disagree
// with the runtime's own.
func checkRun(in *core.Instance, o outcome, cert certificate) []string {
	var v []string
	if !o.converged {
		v = append(v, "run did not converge")
	}
	if cert.nashGap > core.Eps {
		v = append(v, fmt.Sprintf("Nash gap %.3g > %g at termination", cert.nashGap, core.Eps))
	}
	for s := 1; s < len(o.potentials); s++ {
		if o.potentials[s] < o.potentials[s-1]-1e-9*max(1, abs(o.potentials[s-1])) {
			v = append(v, fmt.Sprintf("potential fell in slot %d: %.9g -> %.9g", s, o.potentials[s-1], o.potentials[s]))
			break
		}
	}
	if len(o.nodeCounts) > 0 {
		want := recount(in, o.choices)
		for k, c := range o.nodeCounts {
			if !slices.Equal(c, o.nodeCounts[0]) {
				v = append(v, fmt.Sprintf("node %d counts differ from node 0", k))
			}
			if !slices.Equal(c, want) {
				v = append(v, fmt.Sprintf("node %d counts differ from a recount of the merged choices", k))
			}
		}
	}
	if o.checkMsgs && (o.platSent != o.linkRecv || o.platRecv != o.linkSent) {
		v = append(v, fmt.Sprintf("message totals disagree: platform sent %d/received %d, agent links received %d/sent %d",
			o.platSent, o.platRecv, o.linkRecv, o.linkSent))
	}
	return v
}

// replayPotentials rebuilds the potential Φ after every slot 0..slots
// from the Decisions each user sent (decisions[u], in send order): slot 0
// holds every initial route, slot s the routes adopted in it. It is the
// ascent evidence for runtimes that cannot observe Φ themselves (the
// multi-node peers), and it returns the replayed final choices so the
// caller can tie the replay to the runtime's result.
func replayPotentials(in *core.Instance, decisions [][]wire.Decision, slots int) ([]float64, []int, error) {
	if len(decisions) != in.NumUsers() {
		return nil, nil, fmt.Errorf("replay: decisions of %d users, want %d", len(decisions), in.NumUsers())
	}
	choices := make([]int, in.NumUsers())
	moves := make([][][2]int, slots+1) // moves[s] = (user, route) pairs
	for u, ds := range decisions {
		if len(ds) == 0 || ds[0].Slot != 0 {
			return nil, nil, fmt.Errorf("replay: user %d sent no initial decision", u)
		}
		for _, d := range ds {
			if d.Slot < 0 || d.Slot > slots || d.Route < 0 || d.Route >= len(in.Users[u].Routes) {
				return nil, nil, fmt.Errorf("replay: user %d decision %+v out of range", u, d)
			}
		}
		choices[u] = ds[0].Route
		for _, d := range ds[1:] {
			moves[d.Slot] = append(moves[d.Slot], [2]int{u, d.Route})
		}
	}
	p, err := core.NewProfile(in, choices)
	if err != nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}
	pots := []float64{p.Potential()}
	for s := 1; s <= slots; s++ {
		for _, m := range moves[s] {
			p.SetChoice(core.UserID(m[0]), m[1])
		}
		pots = append(pots, p.Potential())
	}
	return pots, p.Choices(), nil
}

// recount derives the per-task participation counts n_k from choices.
// Out-of-range choices count nowhere (NewProfile in certify rejects them).
func recount(in *core.Instance, choices []int) []int {
	n := make([]int, in.NumTasks())
	for u, c := range choices {
		if u >= len(in.Users) || c < 0 || c >= len(in.Users[u].Routes) {
			continue
		}
		for _, k := range in.Users[u].Routes[c].Tasks {
			n[k]++
		}
	}
	return n
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
