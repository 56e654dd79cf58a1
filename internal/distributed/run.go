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
	link, agent := inProcessFleet(in, opts)
	err = runAgentFleet(in.NumUsers(), link, agent, func(conns []Conn) error {
		plat, err := New(in, conns, WithConfig(opts.Platform))
		if err != nil {
			return err
		}
		stats, err = plat.Run()
		return err
	})
	return stats, err
}

// agentRunner is a user-side protocol loop: Agent or AsyncAgent.
type agentRunner interface{ Run() error }

// inProcessFleet returns the link builder and agent constructor of the
// slotted in-process runners: channel links, with seeded duplicate
// injection on both ends when opts.DupProb is set, and one Agent per user.
func inProcessFleet(in *core.Instance, opts InProcessOptions) (func(int) (Conn, Conn), func(int, Conn) agentRunner) {
	link := func(i int) (Conn, Conn) {
		pc, ac := ChanPair(16)
		if opts.DupProb > 0 {
			dup := FaultProfile{DupProb: opts.DupProb}
			pc = NewFaultConn(pc, dup, faultSeed(opts.AgentSeedBase, i, 0), nil)
			ac = NewFaultConn(ac, dup, faultSeed(opts.AgentSeedBase, i, 1), nil)
		}
		return pc, ac
	}
	agent := func(i int, c Conn) agentRunner {
		u := in.Users[i]
		return NewAgent(c, AgentConfig{
			User: i, Alpha: u.Alpha, Beta: u.Beta, Gamma: u.Gamma,
			Seed:          opts.AgentSeedBase + uint64(i),
			Deterministic: opts.Deterministic,
		})
	}
	return link, agent
}

// runAgentFleet runs one in-process agent goroutine per user while
// platform drives the protocol over the platform ends of their links:
// link(i) returns user i's platform and agent ends, agent(i, conn) builds
// user i's agent. A failed agent's end is closed, which fails the
// platform's next operation on that link; the platform ends are closed
// when the platform fails, which releases every agent still waiting on
// it, and once every agent has returned. The platform's error wins;
// otherwise the first agent error is returned.
func runAgentFleet(n int, link func(int) (Conn, Conn), agent func(int, Conn) agentRunner, platform func(conns []Conn) error) error {
	platConns := make([]Conn, n)
	agentConns := make([]Conn, n)
	for i := range platConns {
		platConns[i], agentConns[i] = link(i)
	}
	closeAll := func() {
		for _, c := range platConns {
			c.Close()
		}
	}
	var wg sync.WaitGroup
	agentErrs := make([]error, n)
	for i := range agentConns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if agentErrs[i] = agent(i, agentConns[i]).Run(); agentErrs[i] != nil {
				agentConns[i].Close()
			}
		}(i)
	}
	perr := platform(platConns)
	if perr != nil {
		closeAll()
	}
	wg.Wait()
	closeAll()
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
