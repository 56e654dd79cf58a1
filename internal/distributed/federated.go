package distributed

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/distributed/federation"
)

// This file runs the sharded federation of Algorithm 2 inside one
// process: users are partitioned across K platform shards
// (internal/distributed/federation decides ownership, spatially by
// default), and RunFederated drives each shard with the same nodeRun slot
// loop a multi-node ServeNode process runs (node.go), one goroutine per
// shard, over in-memory peer links that carry the binary codec. Each
// shard serves only its own agent connections; the shards agree on every
// round's global winner set by broadcasting their requests and selecting
// over the identical merged sequence, and replicate the shared per-task
// participation counts by batched, epoch-stamped delta gossip
// (wire.KindGossipDelta).
//
// Because every replica has ingested all peer batches when a round opens,
// counts are globally exact at round start and stale only within a round —
// and a round's simultaneous moves touch disjoint task sets (PUU) or are a
// single move (SUU/DET), so each mover's ΔΦ is computed against counts
// that are exact for its own tasks. Theorem 2's potential ascent, the
// Theorem 4 slot bound, and the zero-Nash-gap-at-termination argument
// therefore carry over shard-count-independently: a federation converges
// to the same equilibria a standalone platform does, and terminates only
// when no user anywhere can improve against exact counts.

// ShardObservation is the per-shard, per-round report delivered to
// FederatedOptions.ShardObserver.
type ShardObservation struct {
	Shard int
	// Slot is the decision slot the observation closes.
	Slot int
	// Requests and Granted count this shard's update requests and granted
	// updates in the slot.
	Requests int
	Granted  int
	// Epoch is the shard's gossip epoch after the round's flush.
	Epoch int
	// PeerLag[p] is how many gossip epochs shard p's ingested state lags
	// this shard's flushes, sampled after the round's gossip barrier
	// (normally all zero; persistent positive values mean a stalled link).
	PeerLag []int
}

// FederatedOptions configures RunFederated.
type FederatedOptions struct {
	// Shards is the shard count K; 0 or 1 runs a single-shard federation
	// (the federated code path with no peers, useful as a baseline).
	Shards int
	// Platform carries the per-shard platform configuration. Observer and
	// ObservePotential are interpreted globally: the observer is invoked
	// once after init and once per round, once every shard has crossed the
	// round's gossip barrier, with the merged cross-shard observation.
	Platform PlatformConfig
	// Partition overrides user placement; the zero value partitions
	// spatially (federation.Spatial).
	Partition federation.Partition
	// GossipLinks supplies the peer link for one shard pair: it returns
	// a's end and b's end of the a<->b link, which carries both the
	// shards' request broadcasts and their gossip. nil defaults to the
	// binary wire codec over an in-process pipe, so peer frames round-trip
	// through the real encoder even in single-process runs. A link that
	// fails is not re-established: the run fails.
	GossipLinks func(a, b int) (Conn, Conn, error)
	// ShardObserver, when non-nil, receives one ShardObservation per shard
	// per round (called from shard goroutines; must be safe for concurrent
	// use).
	ShardObserver func(ShardObservation)
	// OnTopology, when non-nil, receives the resolved partition before the
	// run starts — the web layer uses it to serve shard topology.
	OnTopology func(federation.Partition)
}

// FederatedStats extends RunStats with federation-level measurements.
type FederatedStats struct {
	RunStats
	Shards int
	// PerShard holds each shard's local view of the run: per-slot request
	// and grant counts for the users it serves, and its link traffic.
	PerShard []RunStats
	// GossipBatches counts delta batches ingested across all shards;
	// GossipCounts counts the per-task delta entries they carried.
	GossipBatches int
	GossipCounts  int
	// MaxPeerLag is the largest gossip lag observed at any round barrier
	// (normally 0: the barrier drains every peer batch).
	MaxPeerLag int
	// SlotSeconds is the wall time spent in the slot loop (excluding the
	// init handshake); slots/sec = Slots / SlotSeconds.
	SlotSeconds float64
}

// RunFederated executes the protocol over a K-shard federation. conns[u]
// must be connected to the agent for (global) user u; each conn is handed
// to exactly one shard. It blocks until the protocol terminates and
// returns the merged statistics.
func RunFederated(in *core.Instance, conns []Conn, opts FederatedOptions) (stats FederatedStats, err error) {
	if len(conns) != in.NumUsers() {
		return stats, fmt.Errorf("distributed: %d connections for %d users", len(conns), in.NumUsers())
	}
	K := max(opts.Shards, 1)
	nopts := NodeOptions{Shards: K, Platform: opts.Platform, Partition: opts.Partition, ShardObserver: opts.ShardObserver}
	choices := make([]int, in.NumUsers())
	nodes := make([]*nodeRun, K)
	for k := range nodes {
		nopts.Shard = k
		if nodes[k], err = newNodeRun(in, nopts); err != nil {
			return stats, err
		}
		nopts.Partition = nodes[k].part
		nodes[k].choices = choices
	}
	if opts.OnTopology != nil {
		opts.OnTopology(nopts.Partition)
	}
	mkLink := opts.GossipLinks
	if mkLink == nil {
		mkLink = pipeGossipLink
	}
	links := make([]map[int]Conn, K) // links[k][p] is shard k's end of the k<->p link
	for k := range links {
		links[k] = make(map[int]Conn, K-1)
	}
	for a := 0; a < K; a++ {
		for b := a + 1; b < K; b++ {
			if links[a][b], links[b][a], err = mkLink(a, b); err != nil {
				for _, ls := range links {
					for _, c := range ls {
						if c != nil {
							c.Close()
						}
					}
				}
				return stats, fmt.Errorf("distributed: gossip link %d<->%d: %w", a, b, err)
			}
		}
	}
	for k, f := range nodes {
		f.mesh = newLocalMesh(k, links[k], f.st)
	}

	// One goroutine per shard. The first failure is the one reported; a
	// failing shard closes its mesh at once so its peers fail fast on the
	// dead links instead of waiting for it. Every other mesh closes only
	// once all shards are done, so no shard's last sends race a teardown.
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for k, f := range nodes {
		owned := f.part.Owned[k]
		sub := make([]Conn, len(owned))
		for li, u := range owned {
			sub[li] = conns[u]
		}
		wg.Add(1)
		go func(k int, f *nodeRun) {
			defer wg.Done()
			err := f.run(sub, 1)
			if err == nil {
				return
			}
			mu.Lock()
			if first == nil {
				first = fmt.Errorf("shard %d: %w", k, err)
			}
			mu.Unlock()
			if !errors.Is(err, ErrNoConvergence) {
				f.mesh.close()
			}
		}(k, f)
	}
	wg.Wait()
	if !nodes[0].loopStart.IsZero() {
		stats.SlotSeconds = time.Since(nodes[0].loopStart).Seconds()
	}
	for _, f := range nodes {
		f.mesh.close()
	}

	stats.Shards = K
	stats.PerShard = make([]RunStats, K)
	for k, f := range nodes {
		sh := f.stats.RunStats
		sh.Choices = nil
		stats.PerShard[k] = sh
		stats.Slots = max(stats.Slots, sh.Slots)
		stats.TotalUpdates += sh.TotalUpdates
		stats.MessagesSent += sh.MessagesSent
		stats.MessagesReceived += sh.MessagesReceived
		stats.RequestsPerSlot = addPerSlot(stats.RequestsPerSlot, sh.RequestsPerSlot)
		stats.SelectedPerSlot = addPerSlot(stats.SelectedPerSlot, sh.SelectedPerSlot)
		stats.GossipBatches += f.stats.GossipBatches
		stats.GossipCounts += f.gossipCounts
		stats.MaxPeerLag = max(stats.MaxPeerLag, f.maxLag)
	}
	stats.Converged = first == nil
	stats.Choices = choices
	return stats, first
}

// addPerSlot adds the per-slot series b into a, extending a as needed.
func addPerSlot(a, b []int) []int {
	for i, v := range b {
		if i == len(a) {
			a = append(a, 0)
		}
		a[i] += v
	}
	return a
}

// RunFederatedInProcess runs a K-shard federation inside one process: K
// shard slot loops plus one agent goroutine per user, connected by channel
// transports, with gossip over the binary codec. The platform
// configuration comes from fopts.Platform; aopts contributes only the
// agent-side knobs (AgentSeedBase, Deterministic, DupProb).
func RunFederatedInProcess(in *core.Instance, fopts FederatedOptions, aopts InProcessOptions) (stats FederatedStats, err error) {
	link, agent := inProcessFleet(in, aopts)
	err = runAgentFleet(in.NumUsers(), link, agent, func(conns []Conn) error {
		stats, err = RunFederated(in, conns, fopts)
		return err
	})
	return stats, err
}

// pipeGossipLink is the default gossip transport: the binary wire codec
// over a synchronous in-process pipe, so even single-process federations
// exercise the real GossipDelta frame encoding.
func pipeGossipLink(a, b int) (Conn, Conn, error) {
	pa, pb := net.Pipe()
	return NewNetConn(pa), NewNetConn(pb), nil
}

// ServeTCPFederated runs a K-shard federation over TCP: it accepts
// in.NumUsers() agent connections on the listener, identifies each by its
// Hello, partitions them across shards per opts, and runs the federated
// protocol to completion. The shards' peer links stay in-process unless
// opts.GossipLinks overrides the transport.
func ServeTCPFederated(ln net.Listener, in *core.Instance, opts FederatedOptions) (FederatedStats, error) {
	conns, err := acceptAgents(ln, allUsers(in.NumUsers()))
	if err != nil {
		return FederatedStats{}, err
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	return RunFederated(in, conns, opts)
}
