package distributed

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/core"
	"repro/internal/wire"
)

// InProcessOptions configures RunInProcess.
type InProcessOptions struct {
	Platform PlatformConfig
	// AgentSeedBase seeds agent i with AgentSeedBase + i.
	AgentSeedBase uint64
	// Deterministic propagates to every agent (see AgentConfig).
	Deterministic bool
	// DupProb injects duplicate deliveries on every agent link with the
	// given probability (0 = reliable links).
	DupProb float64
}

// RunInProcess runs the full distributed protocol inside one process: one
// platform goroutine plus one agent goroutine per user, connected by
// channel transports. It blocks until the protocol terminates and returns
// the platform's statistics. Agent errors are joined into the returned
// error.
func RunInProcess(in *core.Instance, opts InProcessOptions) (stats RunStats, err error) {
	err = runAgentFleet(in, opts, func(conns []Conn) error {
		plat, err := New(in, conns, WithConfig(opts.Platform))
		if err != nil {
			return err
		}
		stats, err = plat.Run()
		return err
	})
	return stats, err
}

// runAgentFleet runs one in-process agent goroutine per user while
// platform drives the protocol over the platform ends of their channel
// links (with seeded duplicate injection when opts.DupProb is set). Agents
// still waiting on a platform that failed are released by closing its
// ends. The platform's error wins; otherwise the first agent error is
// returned.
func runAgentFleet(in *core.Instance, opts InProcessOptions, platform func(conns []Conn) error) error {
	n := in.NumUsers()
	platConns := make([]Conn, n)
	agentConns := make([]Conn, n)
	for i := 0; i < n; i++ {
		pc, ac := ChanPair(16)
		if opts.DupProb > 0 {
			// Fault injection uses a seeded child schedule per link for
			// determinism.
			pc = NewFaultConn(pc, FaultProfile{DupProb: opts.DupProb}, faultSeed(opts.AgentSeedBase, i, 0), nil)
			ac = NewFaultConn(ac, FaultProfile{DupProb: opts.DupProb}, faultSeed(opts.AgentSeedBase, i, 1), nil)
		}
		platConns[i], agentConns[i] = pc, ac
	}
	u := in.Users
	var wg sync.WaitGroup
	agentErrs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a := NewAgent(agentConns[i], AgentConfig{
				User:          i,
				Alpha:         u[i].Alpha,
				Beta:          u[i].Beta,
				Gamma:         u[i].Gamma,
				Seed:          opts.AgentSeedBase + uint64(i),
				Deterministic: opts.Deterministic,
			})
			agentErrs[i] = a.Run()
		}(i)
	}
	perr := platform(platConns)
	if perr != nil {
		for _, c := range platConns {
			c.Close()
		}
	}
	wg.Wait()
	for i, e := range agentErrs {
		if e != nil && perr == nil {
			perr = fmt.Errorf("agent %d: %w", i, e)
		}
	}
	return perr
}

// faultSeed derives a per-link, per-side fault schedule seed.
func faultSeed(base uint64, user, side int) uint64 {
	return base*2654435761 + uint64(user)*97 + uint64(side)
}

// ServeTCP runs the platform over TCP: it accepts in.NumUsers() agent
// connections on the listener, identifies each by its Hello, and then runs
// Algorithm 2 to completion. The consumed Hello messages are replayed to the
// protocol via a pushback connection.
func ServeTCP(ln net.Listener, in *core.Instance, cfg PlatformConfig) (RunStats, error) {
	conns, err := acceptAgents(ln, allUsers(in.NumUsers()))
	if err != nil {
		return RunStats{}, err
	}
	plat, err := New(in, conns, WithConfig(cfg))
	if err != nil {
		return RunStats{}, err
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	return plat.Run()
}

// acceptAgents accepts one agent connection per user in users on ln,
// identifies each by its hello, and returns them in the order of users.
// The consumed hello is replayed to the protocol through a pushback
// connection.
func acceptAgents(ln net.Listener, users []int) ([]Conn, error) {
	index := make(map[int]int, len(users))
	for i, u := range users {
		index[u] = i
	}
	conns := make([]Conn, len(users))
	for accepted := 0; accepted < len(users); accepted++ {
		nc, err := ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("distributed: accept: %w", err)
		}
		conn := NewNetConn(nc)
		m, err := conn.Recv()
		if err != nil {
			return nil, fmt.Errorf("distributed: reading hello: %w", err)
		}
		if m.Kind != wire.KindHello {
			return nil, fmt.Errorf("distributed: first message was %v, want hello", m.Kind)
		}
		u := m.Hello.User
		i, ok := index[u]
		if !ok {
			return nil, fmt.Errorf("distributed: hello from user %d, which this listener does not serve", u)
		}
		if conns[i] != nil {
			return nil, fmt.Errorf("distributed: duplicate connection for user %d", u)
		}
		conns[i] = &pushbackConn{Conn: conn, pending: []*wire.Message{m}}
	}
	return conns, nil
}

// allUsers returns the user IDs 0..n-1.
func allUsers(n int) []int {
	users := make([]int, n)
	for i := range users {
		users[i] = i
	}
	return users
}

// DialTCP connects a user agent to a platform at addr and runs Algorithm 1
// to completion.
func DialTCP(addr string, cfg AgentConfig) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("distributed: dial %s: %w", addr, err)
	}
	defer nc.Close()
	return NewAgent(NewNetConn(nc), cfg).Run()
}

// pushbackConn re-delivers stashed messages before reading from the inner
// connection.
type pushbackConn struct {
	Conn
	mu      sync.Mutex
	pending []*wire.Message
}

func (c *pushbackConn) Recv() (*wire.Message, error) {
	c.mu.Lock()
	if len(c.pending) > 0 {
		m := c.pending[0]
		c.pending = c.pending[1:]
		c.mu.Unlock()
		return m, nil
	}
	c.mu.Unlock()
	return c.Conn.Recv()
}
