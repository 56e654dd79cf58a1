package distributed

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distributed/federation"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// isolatedInstance is a five-user game whose dirty sets are known by
// hand. Users 0 and 1 have one route each over a task nobody else
// covers. Users 2 and 3 both want the rich task 2; user 3 starts on task
// 3, which it shares with user 4, whose only route covers it. Under DET
// with deterministic agents (initial route 0) the run is:
//
//	slot 1: everyone is queried; 2 and 3 request; user 2 moves onto task 2.
//	slot 2: 2 (granted) and 3 (task 2 changed) are queried; user 3 moves
//	        from task 3 to task 2.
//	slot 3: 2 (task 2 changed), 3 (granted) and 4 (task 3 changed) are
//	        queried; nobody requests and the run terminates.
func isolatedInstance() *core.Instance {
	route := func(u int, tasks ...task.ID) core.Route {
		return core.Route{User: core.UserID(u), Tasks: tasks}
	}
	in := &core.Instance{Phi: 0.5, Theta: 0.5}
	for k, a := range []float64{10, 10, 100, 10} {
		in.Tasks = append(in.Tasks, task.Task{ID: task.ID(k), A: a, Mu: 0.5})
	}
	routes := [][]core.Route{
		{route(0, 0)},
		{route(1, 1)},
		{route(2), route(2, 2)},
		{route(3, 3), route(3, 2)},
		{route(4, 3)},
	}
	for u, rs := range routes {
		in.Users = append(in.Users, core.User{ID: core.UserID(u), Alpha: 0.5, Beta: 0.5, Gamma: 0.5, Routes: rs})
	}
	return in
}

// isolatedLinkSent is the number of messages the platform sends each user
// of isolatedInstance: Init, one SlotInfo per slot the user is queried
// in, its Grants, and Terminate.
var isolatedLinkSent = []uint64{3, 3, 6, 6, 4}

// counterSum adds up every counter in snap named base, with or without
// labels, whose name contains each of labels.
func counterSum(snap telemetry.Snapshot, base string, labels ...string) uint64 {
	var sum uint64
next:
	for name, v := range snap.Counters {
		if name != base && !strings.HasPrefix(name, base+"{") {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(name, l) {
				continue next
			}
		}
		sum += v
	}
	return sum
}

// TestDirtySetQueriesOnlyChangedUsers checks the slot protocol re-queries
// a user only when a count on its routes changed or it was granted: the
// isolated users get Init, one SlotInfo and Terminate, user 4 is
// re-queried once a mover touched its task, and distributed_queried_total
// counts exactly the SlotInfos sent. The federated run splits the users so
// that user 3's move reaches user 4's shard only through gossip.
func TestDirtySetQueriesOnlyChangedUsers(t *testing.T) {
	in := isolatedInstance()
	const wantQueried, wantSlots = 10, 2
	check := func(t *testing.T, reg *telemetry.Registry, choices []int, slots int) {
		t.Helper()
		snap := reg.Snapshot()
		for u, want := range isolatedLinkSent {
			if got := counterSum(snap, "distributed_link_sent_total", fmt.Sprintf(`user="%d"`, u)); got != want {
				t.Errorf("user %d: platform sent %d messages, want %d", u, got, want)
			}
		}
		if got := counterSum(snap, "distributed_queried_total"); got != wantQueried {
			t.Errorf("distributed_queried_total = %d, want %d", got, wantQueried)
		}
		if slots != wantSlots {
			t.Errorf("%d decision slots, want %d", slots, wantSlots)
		}
		if want := []int{0, 0, 1, 1, 0}; fmt.Sprint(choices) != fmt.Sprint(want) {
			t.Errorf("final choices %v, want %v", choices, want)
		}
		if !profileOf(t, in, choices).IsNash() {
			t.Error("final profile is not a Nash equilibrium")
		}
	}
	t.Run("standalone", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		stats, err := RunInProcess(in, InProcessOptions{
			Platform:      PlatformConfig{Policy: Deterministic, Telemetry: reg},
			Deterministic: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		check(t, reg, stats.Choices, stats.Slots)
		if n := reg.Snapshot().Counters["distributed_queried_total"]; n != wantQueried {
			t.Errorf("unlabelled distributed_queried_total = %d, want %d", n, wantQueried)
		}
	})
	t.Run("federated", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		stats, err := RunFederatedInProcess(in, FederatedOptions{
			Shards:    2,
			Platform:  PlatformConfig{Policy: Deterministic, Telemetry: reg},
			Partition: federation.Partition{Shards: 2, Assign: []int{0, 1, 0, 1, 0}, Owned: [][]int{{0, 2, 4}, {1, 3}}},
		}, InProcessOptions{Deterministic: true})
		if err != nil {
			t.Fatal(err)
		}
		check(t, reg, stats.Choices, stats.Slots)
		// Shard 0 serves users 0, 2 and 4: 3 + 1 + 2 SlotInfos.
		if n := reg.Snapshot().Counters[`distributed_queried_total{shard="0"}`]; n != 6 {
			t.Errorf(`distributed_queried_total{shard="0"} = %d, want 6`, n)
		}
	})
}

// TestAgentAnswersGrantFromLastView drives one agent by hand through the
// gaps the dirty-set protocol leaves: SlotInfo for slots 3 and 7 only,
// then a Grant for slot 9. The agent must adopt the route it proposed in
// slot 7 and report it as slot 9's decision.
func TestAgentAnswersGrantFromLastView(t *testing.T) {
	pc, ac := ChanPair(8)
	defer pc.Close()
	plat := WithSeq(pc, -1)
	done := make(chan error, 1)
	go func() {
		done <- NewAgent(ac, AgentConfig{User: 0, Alpha: 1, Beta: 0.5, Gamma: 0.5, Deterministic: true}).Run()
	}()
	recv := func(kind wire.Kind) *wire.Message {
		t.Helper()
		m, err := plat.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind != kind {
			t.Fatalf("agent sent %v, want %v", m.Kind, kind)
		}
		return m
	}
	send := func(m *wire.Message) {
		t.Helper()
		if err := plat.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	slotInfo := func(slot int, counts map[int]int) *wire.Request {
		t.Helper()
		send(&wire.Message{Kind: wire.KindSlotInfo, SlotInfo: &wire.SlotInfo{Slot: slot, Counts: counts}})
		r := recv(wire.KindRequest).Request
		if r.Slot != slot || !r.HasUpdate {
			t.Fatalf("slot %d: request %+v, want an update for slot %d", slot, r, slot)
		}
		return r
	}

	recv(wire.KindHello)
	tp := wire.TaskParam{A: 10}
	send(&wire.Message{Kind: wire.KindInit, Init: &wire.Init{
		User:         0,
		Routes:       []wire.RouteInfo{{Tasks: []int{0}}, {Tasks: []int{1}}, {Tasks: []int{2}}},
		Tasks:        map[int]wire.TaskParam{0: tp, 1: tp, 2: tp},
		CurrentRoute: -1,
	}})
	if d := recv(wire.KindDecision).Decision; d.Route != 0 {
		t.Fatalf("initial route %d, want 0", d.Route)
	}
	// Task 0 is crowded; task 1 is free in slot 3, task 2 in slot 7.
	if r := slotInfo(3, map[int]int{0: 3, 1: 0, 2: 1}); r.Route != 1 {
		t.Fatalf("slot 3 proposal %d, want 1", r.Route)
	}
	if r := slotInfo(7, map[int]int{0: 3, 1: 2, 2: 0}); r.Route != 2 {
		t.Fatalf("slot 7 proposal %d, want 2", r.Route)
	}
	send(&wire.Message{Kind: wire.KindGrant, Grant: &wire.Grant{Slot: 9}})
	if d := recv(wire.KindDecision).Decision; d.Slot != 9 || d.Route != 2 {
		t.Fatalf("decision %+v, want slot 9 route 2", d)
	}
	send(&wire.Message{Kind: wire.KindTerminate, Terminate: &wire.Terminate{Slot: 10}})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestCleanUserCrashResumes crashes two agents right after their slot-1
// Request, while the platform is not talking to them: user 0 stays clean
// to the end, so its resumed incarnation only ever sees Terminate; user 4
// is clean in slot 2 and re-queried in slot 3, which finds the resume
// Hello and resynchronizes it. The run must still reach the Nash
// equilibrium promptly.
func TestCleanUserCrashResumes(t *testing.T) {
	in := isolatedInstance()
	reg := telemetry.NewRegistry()
	start := time.Now()
	// Agent operations: send Hello, recv Init, send Decision, recv the
	// slot-1 SlotInfo, send the Request; the sixth (the next Recv) crashes.
	stats, err := RunChaos(in, ChaosOptions{
		Platform:      PlatformConfig{Policy: Deterministic, Telemetry: reg},
		Deterministic: true,
		Seed:          1,
		CrashAgents:   map[int]int{0: 6, 4: 6},
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("run took %v", elapsed)
	}
	if err != nil {
		t.Fatal(err)
	}
	if stats.Restarts != 2 {
		t.Errorf("%d restarts, want 2", stats.Restarts)
	}
	if !stats.Converged {
		t.Fatal("run did not converge")
	}
	if gap := profileOf(t, in, stats.Choices).NashGap(); gap != 0 {
		t.Errorf("Nash gap %v at termination", gap)
	}
	if n := reg.Snapshot().Counters["distributed_reconnects_total"]; n != 1 {
		t.Errorf("%d resyncs, want 1 (user 4, re-queried in slot 3)", n)
	}
}
