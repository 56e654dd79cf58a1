package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/distributed"
	"repro/internal/wire"
)

// This file holds the links the benchmark owns: every agent and gossip
// link is an in-memory net.Pipe (byte-stream, so the binary codec runs on
// every message exactly as over TCP), metered at the byte level by
// netMeter and at the message level by agentLink / gossipLink. The
// runtime under test sees only distributed.Conn and net.Conn values.

// netMeter wraps one end of a byte-stream link and counts what crosses
// it. On the platform end it also sums the time Write blocks: net.Pipe is
// synchronous, so that is the time the platform waits for the agent to
// take the frame.
type netMeter struct {
	net.Conn
	read, written atomic.Int64
	writeWait     atomic.Int64 // ns
	timeWrites    bool
}

func (c *netMeter) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

func (c *netMeter) Write(p []byte) (int, error) {
	var t0 time.Time
	if c.timeWrites {
		t0 = time.Now()
	}
	n, err := c.Conn.Write(p)
	if c.timeWrites {
		c.writeWait.Add(int64(time.Since(t0)))
	}
	c.written.Add(int64(n))
	return n, err
}

// pipePair returns a byte-stream link: the agent end meters bytes in both
// directions, the platform end meters write blocking.
func pipePair() (agentEnd, platEnd *netMeter) {
	a, p := net.Pipe()
	return &netMeter{Conn: a}, &netMeter{Conn: p, timeWrites: true}
}

// slotMarks holds per-slot event times shared by all agent links of one
// run, as nanoseconds since the run's origin. Index = slot number.
type slotMarks struct {
	firstInfo []atomic.Int64 // earliest SlotInfo delivered to any agent
	lastInfo  []atomic.Int64 // latest SlotInfo delivered
	lastReq   []atomic.Int64 // latest Request taken by the platform
	agentMax  []atomic.Int64 // slowest agent's SlotInfo->Request interval
}

func newSlotMarks(maxSlots int) *slotMarks {
	n := maxSlots + 2
	m := &slotMarks{
		firstInfo: make([]atomic.Int64, n),
		lastInfo:  make([]atomic.Int64, n),
		lastReq:   make([]atomic.Int64, n),
		agentMax:  make([]atomic.Int64, n),
	}
	for i := range m.firstInfo {
		m.firstInfo[i].Store(-1)
	}
	return m
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func atomicMin(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if (cur >= 0 && v >= cur) || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// agentLink is the agent-side message-level view of one user's link. Each
// link is used by exactly one agent goroutine, so its plain fields need no
// locking; they are read after the agent's goroutine has been joined.
type agentLink struct {
	distributed.Conn
	net   *netMeter
	clock *clock
	marks *slotMarks // nil when untraced
	spans *spanBuf   // nil when untraced

	sent, recvd        int
	slotInfos, updates int
	grants             int
	lastInfo           int64 // ns, time the current SlotInfo was delivered
	firstInfo          int64 // ns, time the first SlotInfo was delivered
	busy               int64 // ns, sum of SlotInfo delivered -> Request write started
	initAt             int64 // ns, time the Init was delivered
	// decisions are the Decisions the agent sent (traced only): the
	// initial route at slot 0, then the route adopted at each granted slot.
	decisions []wire.Decision
}

func (l *agentLink) Recv() (*wire.Message, error) {
	t0 := l.clock.now()
	m, err := l.Conn.Recv()
	if err != nil {
		return nil, err
	}
	t1 := l.clock.now()
	l.recvd++
	switch m.Kind {
	case wire.KindSlotInfo:
		l.slotInfos++
		l.lastInfo = t1
		if l.firstInfo == 0 {
			l.firstInfo = t1
		}
		if l.marks != nil && m.SlotInfo.Slot < len(l.marks.lastInfo) {
			atomicMin(&l.marks.firstInfo[m.SlotInfo.Slot], t1)
			atomicMax(&l.marks.lastInfo[m.SlotInfo.Slot], t1)
		}
	case wire.KindGrant:
		l.grants++
	case wire.KindInit:
		l.initAt = t1
	}
	if l.spans != nil {
		l.spans.add(spanRecvName(m.Kind), msgSlot(m), t0, t1)
	}
	return m, nil
}

func (l *agentLink) Send(m *wire.Message) error {
	t0 := l.clock.now()
	if err := l.Conn.Send(m); err != nil {
		return err
	}
	t1 := l.clock.now()
	l.sent++
	if m.Kind == wire.KindRequest {
		if m.Request.HasUpdate {
			l.updates++
		}
		// The agent's own work ends when it starts writing; the write then
		// blocks until the platform takes the frame.
		d := t0 - l.lastInfo
		l.busy += d
		if l.marks != nil && m.Request.Slot < len(l.marks.lastReq) {
			atomicMax(&l.marks.lastReq[m.Request.Slot], t1)
			atomicMax(&l.marks.agentMax[m.Request.Slot], d)
		}
	}
	if m.Kind == wire.KindDecision && l.marks != nil {
		l.decisions = append(l.decisions, *m.Decision)
	}
	if l.spans != nil {
		l.spans.add(spanSendName(m.Kind), msgSlot(m), t0, t1)
	}
	return nil
}

// gossipLink is one shard's end of a benchmark-supplied gossip link in the
// in-process federation. Send and Recv run on different goroutines (the
// federation fans sends out while it ingests), so the span buffers are
// split by direction and the wait counter is atomic.
type gossipLink struct {
	distributed.Conn
	net       *netMeter
	clock     *clock
	recvWait  atomic.Int64 // ns blocked in Recv
	sendSpans *spanBuf
	recvSpans *spanBuf
}

func (l *gossipLink) Recv() (*wire.Message, error) {
	t0 := l.clock.now()
	m, err := l.Conn.Recv()
	t1 := l.clock.now()
	l.recvWait.Add(t1 - t0)
	if err != nil {
		return nil, err
	}
	if l.recvSpans != nil {
		l.recvSpans.add(nameGossipRecv, gossipSlot(m), t0, t1)
	}
	return m, nil
}

func (l *gossipLink) Send(m *wire.Message) error {
	t0 := l.clock.now()
	err := l.Conn.Send(m)
	if err == nil && l.sendSpans != nil {
		l.sendSpans.add(nameGossipSend, gossipSlot(m), t0, l.clock.now())
	}
	return err
}

// msgSlot maps a platform<->agent message to the slot it belongs to; the
// handshake (Hello, Init, initial Decision) is slot 0.
func msgSlot(m *wire.Message) int {
	switch m.Kind {
	case wire.KindSlotInfo:
		return m.SlotInfo.Slot
	case wire.KindRequest:
		return m.Request.Slot
	case wire.KindGrant:
		return m.Grant.Slot
	case wire.KindDecision:
		return m.Decision.Slot
	case wire.KindTerminate:
		return m.Terminate.Slot
	}
	return 0
}

// gossipSlot maps a gossip batch to the slot whose barrier it closes: the
// federation stamps the barrier after slot s with epoch s+1 (the init
// barrier is epoch 1, slot 0).
func gossipSlot(m *wire.Message) int {
	if m.Epoch == 0 {
		return 0
	}
	return int(m.Epoch) - 1
}

// pipeListener is an in-memory net.Listener: the benchmark pushes the
// platform ends of agent pipes, ServeNode accepts them. It opens no OS
// socket.
type pipeListener struct {
	conns     chan net.Conn
	done      chan struct{}
	closeOnce sync.Once
	name      string
}

func newPipeListener(name string, backlog int) *pipeListener {
	return &pipeListener{conns: make(chan net.Conn, backlog), done: make(chan struct{}), name: name}
}

// push queues one connection; the channel is sized to the number of
// agents the node will accept, so push never blocks.
func (l *pipeListener) push(c net.Conn) { l.conns <- c }

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.closeOnce.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr(l.name) }

type pipeAddr string

func (a pipeAddr) Network() string { return "pipe" }
func (a pipeAddr) String() string  { return string(a) }

// countingListener wraps the one real TCP listener (the multi-node peer
// mesh) and meters every connection it accepts, so the benchmark can
// assert that exactly one OS connection was opened and count its bytes.
type countingListener struct {
	net.Listener
	mu       sync.Mutex
	accepted []*netMeter
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	m := &netMeter{Conn: c}
	l.mu.Lock()
	l.accepted = append(l.accepted, m)
	l.mu.Unlock()
	return m, nil
}

// connStats returns the accepted connection count and the bytes that
// crossed them in both directions.
func (l *countingListener) connStats() (conns int, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, m := range l.accepted {
		bytes += m.read.Load() + m.written.Load()
	}
	return len(l.accepted), bytes
}
