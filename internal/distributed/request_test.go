package distributed

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/wire"
)

// hostileAgent speaks the agent side of the protocol for one user but
// answers every SlotInfo with an update request carrying the given τ.
func hostileAgent(conn Conn, user int, tau float64) {
	conn = WithSeqEpoch(conn, user, 0)
	if conn.Send(&wire.Message{Kind: wire.KindHello, Hello: &wire.Hello{User: user}}) != nil {
		return
	}
	for {
		m, err := conn.Recv()
		if err != nil {
			return
		}
		var reply *wire.Message
		switch m.Kind {
		case wire.KindInit:
			reply = &wire.Message{Kind: wire.KindDecision, Decision: &wire.Decision{Slot: 0, Route: 0}}
		case wire.KindSlotInfo:
			reply = &wire.Message{Kind: wire.KindRequest, Request: &wire.Request{
				Slot: m.SlotInfo.Slot, HasUpdate: true, Route: 0, Tau: tau, B: []int{0},
			}}
		case wire.KindGrant:
			reply = &wire.Message{Kind: wire.KindDecision, Decision: &wire.Decision{Slot: m.Grant.Slot, Route: 0}}
		default:
			return
		}
		if conn.Send(reply) != nil {
			return
		}
	}
}

// TestPlatformRejectsNonFiniteTau pins the platform boundary: a request
// whose τ is NaN or ±Inf is a protocol error naming the user, so PUU
// selection only ever ranks finite τ.
func TestPlatformRejectsNonFiniteTau(t *testing.T) {
	in := core.RandomInstance(core.DefaultRandomConfig(3, 4), rng.New(5))
	for _, tau := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, policy := range []SelectionPolicy{PUU, Deterministic} {
			n := in.NumUsers()
			platConns := make([]Conn, n)
			for i := 0; i < n; i++ {
				pc, ac := ChanPair(16)
				platConns[i] = pc
				if i == 1 {
					go hostileAgent(ac, i, tau)
					continue
				}
				go func(i int) {
					_ = NewAgent(ac, AgentConfig{User: i, Alpha: in.Users[i].Alpha, Beta: in.Users[i].Beta, Gamma: in.Users[i].Gamma, Seed: 1}).Run()
				}(i)
			}
			plat, err := New(in, platConns, WithConfig(PlatformConfig{Policy: policy, Seed: 1, MaxSlots: 20}))
			if err != nil {
				t.Fatal(err)
			}
			_, err = plat.Run()
			if err == nil || !strings.Contains(err.Error(), "user 1") || !strings.Contains(err.Error(), "non-finite τ") {
				t.Errorf("τ=%v policy %s: Run error = %v, want a non-finite τ protocol error for user 1", tau, policy, err)
			}
			for _, c := range platConns {
				c.Close()
			}
		}
	}
}
