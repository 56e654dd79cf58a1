package distributed

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/tracing"
	"repro/internal/wire"
)

// This file implements an ASYNCHRONOUS variant of the protocol: instead of
// lock-step decision slots, the platform versions its participant counts,
// users request updates whenever their latest view admits an improvement,
// and the platform serializes updates with a single outstanding grant
// (token). A granted user re-evaluates against its freshest counts before
// moving, so every applied move is a genuine best response at application
// time and the potential still ascends — Theorem 2's convergence argument
// carries over even though there is no global slot barrier.
//
// The wire vocabulary is reused: SlotInfo.Slot carries the counts version,
// Request.Slot echoes the version a user responded to.

// AsyncStats summarizes an asynchronous run.
type AsyncStats struct {
	Versions     int // count-state versions (== applied updates + 1)
	Grants       int // grants issued (some may be no-ops after re-evaluation)
	TotalUpdates int // decisions that actually changed a route
	Converged    bool
	Choices      []int
}

// asyncEvent is one message from one served user, merged across
// connections; li indexes the platform's conns.
type asyncEvent struct {
	li  int
	msg *wire.Message
	err error
}

// runAsync drives the asynchronous protocol on the platform's own state:
// the slotted handshake (runInit), count store, views (slotMsg, numbered
// by counts version), decisions, tracing and observations. The whole run
// is one trace: runInit's span parents every later event.
func (p *Platform) runAsync() (AsyncStats, error) {
	var stats AsyncStats
	start := time.Now()
	if err := p.runInit(); err != nil {
		return stats, err
	}
	stats.Versions = 1 // the counts version that numbers every view
	p.view = p.store.View(p.view)
	p.observe(stats.Versions, 0, nil, time.Since(start))

	// Merge incoming messages from all users.
	n := len(p.conns)
	events := make(chan asyncEvent, n*4)
	stop := make(chan struct{})
	for li := range p.conns {
		go func(li int) {
			for {
				m, err := p.conns[li].Recv()
				select {
				case events <- asyncEvent{li: li, msg: m, err: err}:
				case <-stop:
					return
				}
				if err != nil {
					return
				}
			}
		}(li)
	}
	defer close(stop)

	broadcast := func() error {
		for li, u := range p.users {
			if err := p.send(li, p.slotMsg(u, stats.Versions)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := broadcast(); err != nil {
		return stats, err
	}

	// ackVersion[li] = newest version that user declared "no improvement" for.
	ackVersion := make([]int, n)
	for i := range ackVersion {
		ackVersion[i] = -1
	}
	granted := -1     // conn index holding the token, -1 if none
	var pending []int // conn indices with outstanding improvement requests

	converged := func() bool {
		if granted != -1 || len(pending) > 0 {
			return false
		}
		for _, v := range ackVersion {
			if v != stats.Versions {
				return false
			}
		}
		return true
	}
	grantNext := func() error {
		for granted == -1 && len(pending) > 0 {
			li := pending[0]
			pending = pending[1:]
			granted = li
			stats.Grants++
			p.tel.grants.Inc()
			if err := p.send(li, &wire.Message{Kind: wire.KindGrant, Grant: &wire.Grant{Slot: stats.Versions}}); err != nil {
				return err
			}
		}
		return nil
	}

	for !converged() {
		ev := <-events
		u := p.users[ev.li]
		if ev.err != nil {
			return stats, fmt.Errorf("distributed: user %d: %w", u, ev.err)
		}
		switch ev.msg.Kind {
		case wire.KindRequest:
			r := ev.msg.Request
			if r.HasUpdate {
				p.tel.requests.Inc()
				// Enqueue once; duplicates are harmless but wasteful.
				if granted != ev.li && !slices.Contains(pending, ev.li) {
					pending = append(pending, ev.li)
				}
			} else if r.Slot > ackVersion[ev.li] {
				ackVersion[ev.li] = r.Slot
			}
			if err := grantNext(); err != nil {
				return stats, err
			}
		case wire.KindDecision:
			if ev.li != granted {
				return stats, fmt.Errorf("distributed: decision from %d without the token", u)
			}
			granted = -1
			old := p.choices[u]
			if err := p.applyDecision(u, ev.msg.Decision.Route, false); err != nil {
				return stats, err
			}
			if p.choices[u] != old {
				stats.TotalUpdates++
				stats.Versions++
				p.view = p.store.View(p.view)
				p.traceMove(u, old, p.choices[u], stats.Versions)
				p.observe(stats.Versions, 0, []engine.Request{{User: core.UserID(u)}}, 0)
				// Counts changed: rebroadcast views; acks for older
				// versions become stale automatically.
				if err := broadcast(); err != nil {
					return stats, err
				}
			} else if err := p.send(ev.li, p.slotMsg(u, stats.Versions)); err != nil {
				// No-op move (the improvement vanished): the user's reply
				// to the current view carries its ack.
				return stats, err
			}
			if err := grantNext(); err != nil {
				return stats, err
			}
		case wire.KindHello:
			// Mid-run restart: re-init and resend the current view.
			p.tel.reconnects.Inc()
			p.tr.RecordReconnect(p.traceCtx, u, stats.Versions)
			if err := p.send(ev.li, p.initMsg(u, p.choices[u])); err != nil {
				return stats, err
			}
			if err := p.send(ev.li, p.slotMsg(u, stats.Versions)); err != nil {
				return stats, err
			}
		default:
			return stats, fmt.Errorf("distributed: unexpected async message %v from %d", ev.msg.Kind, u)
		}
	}
	for li := range p.conns {
		if err := p.send(li, &wire.Message{Kind: wire.KindTerminate, Terminate: &wire.Terminate{Slot: stats.Versions}}); err != nil {
			return stats, err
		}
	}
	stats.Converged = true
	stats.Choices = append([]int(nil), p.choices...)
	return stats, nil
}

// AsyncAgent is the user-side loop for the asynchronous protocol. Unlike
// the slotted Agent it re-evaluates its best response WHEN GRANTED, against
// the freshest counts it has seen, so stale requests degrade into no-ops
// instead of profit-losing moves.
type AsyncAgent struct {
	inner *Agent
}

// NewAsyncAgent creates an asynchronous agent over conn.
func NewAsyncAgent(conn Conn, cfg AgentConfig) *AsyncAgent {
	return &AsyncAgent{inner: NewAgent(conn, cfg)}
}

// Run executes the asynchronous user loop until termination.
func (a *AsyncAgent) Run() error {
	ag := a.inner
	if err := ag.hello(false); err != nil {
		return err
	}
	lastVersion := 0
	for {
		m, err := ag.conn.Recv()
		if err != nil {
			return fmt.Errorf("async agent %d: %w", ag.cfg.User, err)
		}
		ag.traceCtx = TraceContext(m)
		switch m.Kind {
		case wire.KindInit:
			if err := ag.handleInit(m.Init); err != nil {
				return err
			}
		case wire.KindSlotInfo:
			ag.counts = m.SlotInfo.Counts
			lastVersion = m.SlotInfo.Slot
			delta := ag.bestResponseSet()
			req := &wire.Request{Slot: lastVersion}
			if len(delta) > 0 {
				req.HasUpdate = true
				req.Route = delta[0]
			}
			if err := ag.send(&wire.Message{Kind: wire.KindRequest, Request: req}); err != nil {
				return err
			}
		case wire.KindGrant:
			// Re-evaluate NOW: the counts may have moved since the request.
			delta := ag.bestResponseSet()
			if len(delta) > 0 {
				ag.current = delta[0]
			}
			if err := ag.send(&wire.Message{
				Kind:     wire.KindDecision,
				Decision: &wire.Decision{Slot: lastVersion, Route: ag.current},
			}); err != nil {
				return err
			}
		case wire.KindTerminate:
			return nil
		default:
			return fmt.Errorf("async agent %d: unexpected %v", ag.cfg.User, m.Kind)
		}
	}
}

// AsyncRunOptions configures RunAsyncInProcessOpts beyond the defaults of
// RunAsyncInProcess.
type AsyncRunOptions struct {
	AgentSeedBase uint64
	// Profile, when non-zero, decorates every link with seeded fault
	// injection; pair it with a Retry policy so the loops ride out the
	// transient failures. Hard disconnects are not supported by the async
	// runner (use RunChaos for crash/reconnect testing).
	Profile   FaultProfile
	FaultSeed uint64
	Retry     RetryPolicy
	// Log aggregates injected faults across all links when non-nil.
	Log *FaultLog
	// Observer is installed on the platform (see WithObserver).
	Observer func(Observation)
	// Tracer is installed on the platform, every agent, and every fault /
	// retry decorator, so one flight recorder sees the whole run.
	Tracer *tracing.Tracer
}

// RunAsyncInProcess runs the asynchronous protocol with channel transports:
// one platform goroutine plus one async agent per user.
func RunAsyncInProcess(in *core.Instance, agentSeedBase uint64) (AsyncStats, error) {
	return RunAsyncInProcessOpts(in, AsyncRunOptions{AgentSeedBase: agentSeedBase})
}

// RunAsyncInProcessOpts is RunAsyncInProcess with fault injection, retry
// hardening, and an update observer.
func RunAsyncInProcessOpts(in *core.Instance, opts AsyncRunOptions) (stats AsyncStats, err error) {
	n := in.NumUsers()
	faulty := opts.Profile != (FaultProfile{})
	link := func(i int) (Conn, Conn) {
		pc, ac := ChanPair(4 * n)
		if faulty {
			pc = NewFaultConn(pc, opts.Profile, faultSeed(opts.FaultSeed, i, 0), opts.Log).WithTracer(opts.Tracer, i)
			ac = NewFaultConn(ac, opts.Profile, faultSeed(opts.FaultSeed, i, 1), opts.Log).WithTracer(opts.Tracer, i)
		}
		if opts.Retry.MaxAttempts > 0 {
			pc = WithRetryTraced(pc, opts.Retry, opts.Tracer, i)
			ac = WithRetryTraced(ac, opts.Retry, opts.Tracer, i)
		}
		return pc, ac
	}
	agent := func(i int, c Conn) agentRunner {
		u := in.Users[i]
		return NewAsyncAgent(c, AgentConfig{
			User: i, Alpha: u.Alpha, Beta: u.Beta, Gamma: u.Gamma,
			Seed:   opts.AgentSeedBase + uint64(i),
			Tracer: opts.Tracer,
		})
	}
	err = runAgentFleet(n, link, agent, func(conns []Conn) error {
		plat, err := New(in, conns, WithAsync(), WithObserver(opts.Observer), WithTracer(opts.Tracer))
		if err != nil {
			return err
		}
		stats, err = plat.RunAsync()
		return err
	})
	return stats, err
}
