package distributed

import (
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestNewOptionValidation table-tests the construction-time validation of
// the functional-options API for both the sync and async paths.
func TestNewOptionValidation(t *testing.T) {
	in := randomInstance(41, 6, 4)
	conns := func(n int) []Conn {
		cs := make([]Conn, n)
		for i := range cs {
			cs[i], _ = ChanPair(1)
		}
		return cs
	}
	cases := []struct {
		name    string
		conns   []Conn
		opts    []Option
		wantErr string
	}{
		{"defaults", conns(6), nil, ""},
		{"async-defaults", conns(6), []Option{WithAsync()}, ""},
		{"nil-registry-defaults", conns(6), []Option{WithTelemetry(nil)}, ""},
		{"zero-timeout", conns(6), []Option{WithSlotTimeout(0)}, "slot timeout"},
		{"negative-timeout", conns(6), []Option{WithSlotTimeout(-time.Second)}, "slot timeout"},
		{"zero-max-slots", conns(6), []Option{WithMaxSlots(0)}, "max slots"},
		{"shard-count-zero", conns(6), []Option{WithShard(0, 0)}, "shard count"},
		{"shard-index-negative", conns(6), []Option{WithShard(-1, 2)}, "shard index"},
		{"shard-index-too-big", conns(6), []Option{WithShard(2, 2)}, "shard index"},
		{"shard-needs-users", conns(3), []Option{WithShard(0, 2)}, "WithUsers"},
		{"shard-async-conflict", conns(3), []Option{WithShard(0, 2), WithUsers([]int{0, 1, 2}), WithAsync()}, "incompatible"},
		{"conn-user-mismatch", conns(4), []Option{WithUsers([]int{0, 1, 2})}, "4 connections for 3 users"},
		{"user-out-of-range", conns(2), []Option{WithUsers([]int{0, 6})}, "out of range"},
		{"user-duplicated", conns(2), []Option{WithUsers([]int{1, 1})}, "served twice"},
		{"unknown-policy", conns(6), []Option{WithPolicy("bogus")}, "unknown policy"},
		{"sharded-ok", conns(3), []Option{WithShard(0, 2), WithUsers([]int{0, 2, 4})}, ""},
	}
	for _, tc := range cases {
		p, err := New(in, tc.conns, tc.opts...)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want containing %q", tc.name, err, tc.wantErr)
		}
		if p != nil {
			t.Errorf("%s: got platform alongside error", tc.name)
		}
	}
}

// TestNewOptionDefaults checks the documented defaults land on the
// constructed platform.
func TestNewOptionDefaults(t *testing.T) {
	in := randomInstance(43, 4, 3)
	cs := make([]Conn, 4)
	for i := range cs {
		cs[i], _ = ChanPair(1)
	}
	p, err := New(in, cs)
	if err != nil {
		t.Fatal(err)
	}
	if p.cfg.Policy != SUU {
		t.Errorf("default policy %q, want SUU", p.cfg.Policy)
	}
	if p.cfg.MaxSlots <= 0 {
		t.Errorf("default MaxSlots %d, want > 0", p.cfg.MaxSlots)
	}
	if shard, shards := p.Shard(); shard != -1 || shards != 0 {
		t.Errorf("standalone platform reports shard %d/%d, want -1/0", shard, shards)
	}
	if st := p.store; st == nil || st.Shard() != 0 || st.Shards() != 1 {
		t.Error("standalone platform holds no one-shard store (shard 0 of 1)")
	}
	if got := p.Users(); len(got) != 4 || got[0] != 0 || got[3] != 3 {
		t.Errorf("default users %v, want [0 1 2 3]", got)
	}

	sharded, err := New(in, cs[:2], WithShard(1, 2), WithUsers([]int{1, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if shard, shards := sharded.Shard(); shard != 1 || shards != 2 {
		t.Errorf("sharded platform reports %d/%d, want 1/2", shard, shards)
	}
	st := sharded.store
	if st == nil {
		t.Fatal("sharded platform built no store")
	}
	if st.Shard() != 1 || st.Shards() != 2 {
		t.Errorf("auto-built store is shard %d/%d", st.Shard(), st.Shards())
	}
}

// TestNewRunsWithOptions drives a full run through New for both protocol
// variants, with an explicit registry and a slot timeout, to check the
// options compose end to end.
func TestNewRunsWithOptions(t *testing.T) {
	in := randomInstance(47, 8, 5)
	reg := telemetry.NewRegistry()
	var observed int
	run := func(opts ...Option) RunStats {
		t.Helper()
		n := in.NumUsers()
		platConns := make([]Conn, n)
		agentConns := make([]Conn, n)
		for i := 0; i < n; i++ {
			platConns[i], agentConns[i] = ChanPair(16)
		}
		p, err := New(in, platConns, opts...)
		if err != nil {
			t.Fatal(err)
		}
		async := p.async
		done := make(chan error, n)
		for i := 0; i < n; i++ {
			go func(i int) {
				cfg := AgentConfig{
					User:  i,
					Alpha: in.Users[i].Alpha, Beta: in.Users[i].Beta, Gamma: in.Users[i].Gamma,
					Seed: 100 + uint64(i), Deterministic: true,
				}
				if async {
					done <- NewAsyncAgent(agentConns[i], cfg).Run()
				} else {
					done <- NewAgent(agentConns[i], cfg).Run()
				}
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
		return stats
	}

	stats := run(
		WithPolicy(PUU),
		WithSeed(9),
		WithTelemetry(reg),
		WithSlotTimeout(5*time.Second),
		WithObserver(func(Observation) { observed++ }),
	)
	if !stats.Converged {
		t.Fatal("sync run did not converge")
	}
	if observed == 0 {
		t.Error("observer never invoked")
	}
	if !profileOf(t, in, stats.Choices).IsNash() {
		t.Fatal("sync run not Nash")
	}

	astats := run(WithAsync(), WithSlotTimeout(5*time.Second))
	if !astats.Converged {
		t.Fatal("async run did not converge")
	}
	if !profileOf(t, in, astats.Choices).IsNash() {
		t.Fatal("async run not Nash")
	}
}
