package main

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/wire"
)

// equilibrium returns a small instance and a certified equilibrium of it.
func equilibrium(t *testing.T) (*core.Instance, []int) {
	t.Helper()
	in := genSparse(sparseParams{Users: 60, Tasks: 20, MaxTasksPerRoute: 4}, rng.New(21))
	res := engine.Run(in, engine.NewPUU, rng.New(22), engine.Config{})
	if !res.Converged {
		t.Fatal("engine did not converge")
	}
	return in, res.Profile.Choices()
}

func TestCheckerPassesCleanRun(t *testing.T) {
	in, choices := equilibrium(t)
	cert, err := certify(in, choices)
	if err != nil {
		t.Fatal(err)
	}
	counts := recount(in, choices)
	o := outcome{converged: true, choices: choices, potentials: []float64{1, 2, 2, 3},
		nodeCounts: [][]int{counts, append([]int(nil), counts...)}}
	if v := checkRun(in, o, cert); len(v) != 0 {
		t.Fatalf("clean run flagged: %v", v)
	}
}

func TestCheckerFlagsCorruptedChoices(t *testing.T) {
	in, choices := equilibrium(t)
	// Move one user to a strictly worse route: it now has a better
	// response, so the recomputed Nash gap is positive.
	prof, err := core.NewProfile(in, choices)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]int(nil), choices...)
	found := false
	for u := range in.Users {
		for c := range in.Users[u].Routes {
			if c != choices[u] && prof.ProfitIf(core.UserID(u), c) < prof.Profit(core.UserID(u))-1e-6 {
				bad[u], found = c, true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no user with a strictly worse route")
	}
	cert, err := certify(in, bad)
	if err != nil {
		t.Fatal(err)
	}
	v := checkRun(in, outcome{converged: true, choices: bad}, cert)
	if !hasViolation(v, "Nash gap") {
		t.Fatalf("corrupted choice vector not flagged: %v", v)
	}
}

func TestCheckerFlagsCorruptedCounts(t *testing.T) {
	in, choices := equilibrium(t)
	cert, err := certify(in, choices)
	if err != nil {
		t.Fatal(err)
	}
	good := recount(in, choices)
	bad := append([]int(nil), good...)
	bad[0]++
	v := checkRun(in, outcome{converged: true, choices: choices, nodeCounts: [][]int{good, bad}}, cert)
	if !hasViolation(v, "node 1 counts differ from node 0") || !hasViolation(v, "recount") {
		t.Fatalf("corrupted count vector not flagged: %v", v)
	}
	// Both nodes agreeing on the same wrong vector is still caught by the
	// recount.
	v = checkRun(in, outcome{converged: true, choices: choices, nodeCounts: [][]int{bad, bad}}, cert)
	if !hasViolation(v, "recount") {
		t.Fatalf("agreeing but wrong counts not flagged: %v", v)
	}
}

func TestCheckerFlagsOtherViolations(t *testing.T) {
	in, choices := equilibrium(t)
	cert, err := certify(in, choices)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		o    outcome
		want string
	}{
		{outcome{converged: false, choices: choices}, "did not converge"},
		{outcome{converged: true, choices: choices, potentials: []float64{1, 3, 2}}, "potential fell"},
		{outcome{converged: true, choices: choices, checkMsgs: true, platSent: 10, linkRecv: 9}, "message totals"},
	}
	for _, c := range cases {
		if v := checkRun(in, c.o, cert); !hasViolation(v, c.want) {
			t.Errorf("want a %q violation, got %v", c.want, v)
		}
	}
	if _, err := certify(in, append(choices[:len(choices)-1:len(choices)-1], 99)); err == nil {
		t.Error("certify accepted an out-of-range route")
	}
}

func hasViolation(v []string, sub string) bool {
	for _, s := range v {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

// TestReplayPotentials replays a better-response path: Φ rises at every
// slot and the replay ends at the path's final choices. A Decision that
// moves a user to a worse route makes Φ fall, and the checker flags it.
func TestReplayPotentials(t *testing.T) {
	in := genSparse(sparseParams{Users: 60, Tasks: 20, MaxTasksPerRoute: 4}, rng.New(21))
	prof := core.RandomProfile(in, rng.New(23))
	decisions := make([][]wire.Decision, in.NumUsers())
	for u := range decisions {
		decisions[u] = []wire.Decision{{Slot: 0, Route: prof.Choice(core.UserID(u))}}
	}
	slots := 0
	for moved := true; moved; {
		moved = false
		for u := range in.Users {
			if br := prof.BetterResponses(core.UserID(u)); len(br) > 0 {
				slots++
				prof.SetChoice(core.UserID(u), br[0])
				decisions[u] = append(decisions[u], wire.Decision{Slot: slots, Route: br[0]})
				moved = true
			}
		}
	}
	if slots == 0 {
		t.Fatal("random profile is already an equilibrium")
	}
	pots, final, err := replayPotentials(in, decisions, slots)
	if err != nil {
		t.Fatal(err)
	}
	if len(pots) != slots+1 || !slices.Equal(final, prof.Choices()) {
		t.Fatalf("replay: %d potentials for %d slots, final choices equal: %v", len(pots), slots, slices.Equal(final, prof.Choices()))
	}
	cert, err := certify(in, final)
	if err != nil {
		t.Fatal(err)
	}
	if v := checkRun(in, outcome{converged: true, choices: final, potentials: pots}, cert); len(v) != 0 {
		t.Fatalf("better-response replay flagged: %v", v)
	}

	// Append a move to a strictly worse route in an extra slot.
	for u := range in.Users {
		for c := range in.Users[u].Routes {
			if prof.ProfitIf(core.UserID(u), c) < prof.Profit(core.UserID(u))-1e-6 {
				decisions[u] = append(decisions[u], wire.Decision{Slot: slots + 1, Route: c})
				pots, _, err := replayPotentials(in, decisions, slots+1)
				if err != nil {
					t.Fatal(err)
				}
				if v := checkRun(in, outcome{converged: true, choices: final, potentials: pots}, cert); !hasViolation(v, "potential fell") {
					t.Fatalf("worsening move not flagged: %v", v)
				}
				return
			}
		}
	}
	t.Fatal("no user with a strictly worse route")
}
