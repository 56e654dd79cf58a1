// Package engine simulates the decision-slot protocol of Algorithms 1 and 2:
// in each slot the platform collects update requests from users whose best
// route set is nonempty, selects a subset of them via an update policy (SUU,
// PUU/Algorithm 3, or one of the §5.2 baselines), and lets the selected
// users update their route decisions. The run terminates when no user
// requests an update — a Nash equilibrium by Definition 2.
package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

// Request is one user's update request in a decision slot: the user, its
// chosen new route (from its best route set unless the policy says
// otherwise), the potential gain τ_i, and the touched task set B_i.
type Request struct {
	User  core.UserID
	Route int // proposed new route index
	Tau   float64
	B     []int // task IDs touched by the move (as ints for compactness)
}

// Policy selects, from the slot's requesters, the users that update this
// slot. Implementations may be stateful (BATS); fresh state is created per
// run via New.
type Policy interface {
	// Name returns the paper's name for the algorithm (DGRN, MUUN, ...).
	Name() string
	// SelectAndUpdate inspects the profile, applies this slot's updates in
	// place, and reports how many users requested an update and which users
	// actually moved. A slot with zero requesters means convergence.
	SelectAndUpdate(p *core.Profile, s *rng.Stream) (requesters int, updated []core.UserID)
}

// PolicyFactory creates a fresh policy instance for one run.
type PolicyFactory func() Policy

// SlotRecord captures the state after one decision slot.
type SlotRecord struct {
	Slot        int
	Potential   float64
	TotalProfit float64
	Updated     []core.UserID
	// Profits is per-user profit after the slot; populated only when
	// Config.RecordProfits is set.
	Profits []float64
	// Selected is the number of users that updated in this slot (Table 3).
	Selected int
}

// Result of one engine run.
type Result struct {
	Policy    string
	Slots     int // decision slots consumed before the termination slot
	Converged bool
	Profile   *core.Profile
	History   []SlotRecord
	// TotalUpdates counts individual user decision updates across the run.
	TotalUpdates int
}

// Config controls a run.
type Config struct {
	// MaxSlots caps the run; 0 means DefaultMaxSlots. A run that hits the
	// cap reports Converged=false.
	MaxSlots int
	// RecordHistory stores a SlotRecord per slot (including slot 0, the
	// initial state).
	RecordHistory bool
	// RecordProfits additionally stores per-user profits in each record.
	RecordProfits bool
	// Telemetry, when non-nil, receives per-slot engine metrics: slot
	// duration, requester and update counts, and — when RecordHistory also
	// holds, so the potential is already being computed — the potential and
	// its per-slot delta. Nil keeps the simulation loop free of any
	// instrumentation cost.
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, records one flight-recorder span per decision
	// slot (requesters, updates, and the slot's ΔΦ), feeding the tracer's
	// Nash-stall detector. Sampling is the tracer's: unsampled slots cost a
	// few nanoseconds and no allocation.
	Tracer *tracing.Tracer
}

// engineMetrics holds the pre-resolved handles for one instrumented run.
type engineMetrics struct {
	slotDuration   *telemetry.Histogram
	slots          *telemetry.Counter
	requesters     *telemetry.Counter
	updates        *telemetry.Counter
	potential      *telemetry.Gauge
	potentialDelta *telemetry.Gauge
}

func newEngineMetrics(reg *telemetry.Registry) *engineMetrics {
	return &engineMetrics{
		slotDuration:   reg.Histogram("engine_slot_duration_seconds", nil),
		slots:          reg.Counter("engine_slots_total"),
		requesters:     reg.Counter("engine_requesters_total"),
		updates:        reg.Counter("engine_updates_total"),
		potential:      reg.Gauge("engine_potential"),
		potentialDelta: reg.Gauge("engine_potential_delta"),
	}
}

// DefaultMaxSlots bounds runaway runs; Theorem 4 guarantees finite
// convergence, so hitting this indicates a bug or a pathological Eps issue.
const DefaultMaxSlots = 100000

// Run executes Algorithm 1 + Algorithm 2 on a fresh random initial profile
// (Algorithm 1 line 3) drawn from the stream.
func Run(in *core.Instance, factory PolicyFactory, s *rng.Stream, cfg Config) Result {
	p := core.RandomProfile(in, s.Child())
	return RunFrom(p, factory, s.Child(), cfg)
}

// RunFrom executes the protocol starting from the given profile, mutating it
// in place.
func RunFrom(p *core.Profile, factory PolicyFactory, s *rng.Stream, cfg Config) Result {
	maxSlots := cfg.MaxSlots
	if maxSlots <= 0 {
		maxSlots = DefaultMaxSlots
	}
	policy := factory()
	res := Result{Policy: policy.Name(), Profile: p}
	var tel *engineMetrics
	if cfg.Telemetry != nil {
		tel = newEngineMetrics(cfg.Telemetry)
	}
	// prevPot tracks the last recorded potential for the delta gauge; the
	// potential itself is only computed when history recording already pays
	// for it.
	prevPot := math.NaN()
	record := func(slot int, updated []core.UserID) {
		if !cfg.RecordHistory {
			return
		}
		rec := SlotRecord{
			Slot:        slot,
			Potential:   p.Potential(),
			TotalProfit: p.TotalProfit(),
			Updated:     updated,
			Selected:    len(updated),
		}
		if cfg.RecordProfits {
			rec.Profits = make([]float64, p.Instance().NumUsers())
			for i := range rec.Profits {
				rec.Profits[i] = p.Profit(core.UserID(i))
			}
		}
		res.History = append(res.History, rec)
		if tel != nil {
			tel.potential.Set(rec.Potential)
			if !math.IsNaN(prevPot) {
				tel.potentialDelta.Set(rec.Potential - prevPot)
			}
			prevPot = rec.Potential
		}
	}
	record(0, nil)
	// tracePot is the potential at the last traced slot boundary, so each
	// sampled slot span carries the ΔΦ accumulated since the previous
	// sampled one (at the default sample rate of 1, exactly its own ΔΦ).
	var tracePot float64
	if cfg.Tracer.Enabled() {
		tracePot = p.Potential()
	}
	for slot := 1; slot <= maxSlots; slot++ {
		tspan := cfg.Tracer.StartSpan(cfg.Tracer.StartTrace(), tracing.KindSlot, -1, slot)
		var span telemetry.Span
		if tel != nil {
			span = telemetry.StartSpan(tel.slotDuration)
		}
		requesters, updated := policy.SelectAndUpdate(p, s)
		if tel != nil {
			span.End()
			tel.requesters.Add(uint64(requesters))
		}
		if requesters == 0 {
			// Algorithm 2 line 11: no requests → send termination message.
			tspan.Finish()
			res.Converged = true
			return res
		}
		if tel != nil {
			tel.slots.Inc()
			tel.updates.Add(uint64(len(updated)))
		}
		if tspan.Recording() {
			pot := p.Potential()
			tspan.FinishSlot(requesters, len(updated), pot-tracePot)
			tracePot = pot
		} else {
			tspan.Finish()
		}
		res.Slots = slot
		res.TotalUpdates += len(updated)
		record(slot, updated)
	}
	return res
}

// Request-collection telemetry on the default registry (the per-run
// Config.Telemetry registry is policy-agnostic; the collect path sits below
// the Policy interface, so its metrics live package-wide like
// internal/parallel's).
var (
	collectDuration   = telemetry.Default().Histogram("engine_collect_duration_seconds", nil)
	collectParallel   = telemetry.Default().Counter("engine_collect_parallel_total")
	collectSequential = telemetry.Default().Counter("engine_collect_sequential_total")
)

// collectParallelMin is the user count at which collectRequests fans the
// best-response evaluation across internal/parallel shards. Below it the
// goroutine fan-out costs more than the probes; a package variable so tests
// can force either path.
var collectParallelMin = 96

// collectRequests gathers this slot's update requests: every user whose best
// route set Δ_i is nonempty, with a proposed route chosen uniformly from
// Δ_i (Algorithm 1 line 14).
//
// It runs in three phases. First every user's Δ_i is evaluated — the
// slot's dominant cost, embarrassingly parallel and RNG-free — together
// with each route's profit gain when withMeta asks for τ_i. Then the
// proposals are drawn from the stream in user order, and τ_i is the
// drawn route's gain over α_i, bit-identical to Profile.Tau. Last, with
// withMeta, each request's B_i is built at its exact size. The first and
// last phases fan out across internal/parallel shards, each probing
// through its own core.Evaluator, once their item count reaches
// collectParallelMin; the shards write disjoint slots, so the emitted
// requests (and all downstream run trajectories) are bit-identical either
// way.
func collectRequests(p *core.Profile, s *rng.Stream, withMeta bool) []Request {
	span := telemetry.StartSpan(collectDuration)
	defer span.End()
	in := p.Instance()
	n := in.NumUsers()
	if n >= collectParallelMin {
		collectParallel.Inc()
	} else {
		collectSequential.Inc()
	}
	sets := make([][]int, n)
	var gains [][]float64
	if withMeta {
		gains = make([][]float64, n)
	}
	forEachShard(p, n, func(ev *core.Evaluator, w, shards int) {
		for i := w; i < n; i += shards {
			if withMeta {
				sets[i], gains[i] = ev.BestResponses(core.UserID(i))
			} else {
				sets[i] = ev.BestResponseSet(core.UserID(i))
			}
		}
	})
	requesters := 0
	for _, set := range sets {
		if len(set) > 0 {
			requesters++
		}
	}
	if requesters == 0 {
		return nil
	}
	reqs := make([]Request, 0, requesters)
	for i, set := range sets {
		if len(set) == 0 {
			continue
		}
		j := s.Intn(len(set))
		req := Request{User: core.UserID(i), Route: set[j]}
		if withMeta {
			req.Tau = gains[i][j] / in.Users[i].Alpha
		}
		reqs = append(reqs, req)
	}
	if withMeta {
		forEachShard(p, len(reqs), func(ev *core.Evaluator, w, shards int) {
			var buf []task.ID
			for j := w; j < len(reqs); j += shards {
				r := &reqs[j]
				buf = ev.AppendMoveTasks(buf[:0], r.User, r.Route)
				r.B = make([]int, len(buf))
				for x, k := range buf {
					r.B[x] = int(k)
				}
			}
		})
	}
	return reqs
}

// forEachShard runs body over n items split across evaluator shards: shard
// w of shards owns items w, w+shards, w+2·shards, …, so each output slot is
// written by exactly one goroutine and the result depends only on the
// profile state, never on scheduling. Below collectParallelMin items the
// single shard runs inline. Each shard probes through a private
// core.Evaluator: probes are read-only on the profile and bit-identical to
// the profile's own methods.
func forEachShard(p *core.Profile, n int, body func(ev *core.Evaluator, w, shards int)) {
	if n < collectParallelMin {
		body(p.NewEvaluator(), 0, 1)
		return
	}
	shards := parallel.DefaultWorkers()
	if max := (n + 31) / 32; shards > max {
		shards = max // keep ≥32 items per shard
	}
	// The shard body never errors; ForEach's error return is vacuous here.
	_ = parallel.ForEach(shards, shards, func(w int) error {
		body(p.NewEvaluator(), w, shards)
		return nil
	})
}

// Requests returns the update requests the platform would collect from the
// current profile this slot (Algorithm 1 line 14 / Algorithm 2 line 4),
// without applying any of them. withMeta additionally fills each request's
// τ_i and B_i, as the PUU and BUAU policies require. Exported for
// benchmarks and external tooling; policies use the same path internally.
func Requests(p *core.Profile, s *rng.Stream, withMeta bool) []Request {
	return collectRequests(p, s, withMeta)
}

// --- SUU: Single User Update (the DGRN configuration) ---

type suu struct{}

// NewSUU returns the Single User Update policy: the platform picks one
// requester uniformly at random and lets it apply its best response. This is
// the DGRN algorithm of §5.2.
func NewSUU() Policy { return suu{} }

func (suu) Name() string { return "DGRN" }

func (suu) SelectAndUpdate(p *core.Profile, s *rng.Stream) (int, []core.UserID) {
	reqs := collectRequests(p, s, false)
	if len(reqs) == 0 {
		return 0, nil
	}
	r := reqs[s.Intn(len(reqs))]
	p.SetChoice(r.User, r.Route)
	return len(reqs), []core.UserID{r.User}
}

// --- PUU: Parallel User Update (Algorithm 3; the MUUN configuration) ---

type puu struct{}

// NewPUU returns the Parallel User Update policy (Algorithm 3): requesters
// are sorted by δ_i = τ_i/|B_i| non-ascending and greedily admitted while
// their touched task sets B_i stay pairwise disjoint; all admitted users
// update concurrently in the same decision slot. This is the MUUN algorithm
// of §5.2.
func NewPUU() Policy { return puu{} }

func (puu) Name() string { return "MUUN" }

func (puu) SelectAndUpdate(p *core.Profile, s *rng.Stream) (int, []core.UserID) {
	reqs := collectRequests(p, s, true)
	if len(reqs) == 0 {
		return 0, nil
	}
	selected := SelectPUU(reqs)
	updated := make([]core.UserID, 0, len(selected))
	for _, r := range selected {
		p.SetChoice(r.User, r.Route)
		updated = append(updated, r.User)
	}
	return len(reqs), updated
}

// SelectPUU implements the greedy core of Algorithm 3 on a request set: sort
// by δ_i = τ_i/|B_i| non-ascending (a move touching no tasks interferes with
// nothing and has δ = +Inf, sorted first), then admit requests whose B sets
// do not intersect the union of already-admitted B sets. Ties keep request
// order. Exported for direct testing of Theorem 3's guarantee.
//
// Requests may come from agents, so SelectPUU accepts any B entries
// (negative, huge, duplicated) and any τ without panicking, and allocates
// in proportion to the request sizes, never to a task ID's value. Claimed
// tasks live in a Go map, whose per-process hash seed keeps an agent from
// choosing IDs that collide. The order is a stable sort under ">" on δ,
// which for every τ except NaN is the order an insertion sort by
// non-ascending δ produces; the platforms reject NaN and infinite τ at
// their boundary.
func SelectPUU(reqs []Request) []Request {
	type ranked struct {
		delta float64
		idx   int
	}
	order := make([]ranked, len(reqs))
	for i, r := range reqs {
		d := math.Inf(1)
		if len(r.B) > 0 {
			d = r.Tau / float64(len(r.B))
		}
		order[i] = ranked{d, i}
	}
	slices.SortFunc(order, func(a, b ranked) int {
		switch {
		case a.delta > b.delta:
			return -1
		case b.delta > a.delta:
			return 1
		}
		return cmp.Compare(a.idx, b.idx)
	})
	taken := make(map[int]struct{})
	var out []Request
next:
	for _, o := range order {
		r := reqs[o.idx]
		for _, k := range r.B {
			if _, ok := taken[k]; ok {
				continue next
			}
		}
		for _, k := range r.B {
			taken[k] = struct{}{}
		}
		out = append(out, r)
	}
	return out
}

// --- BRUN: Better Response Update Navigation ---

type brun struct{}

// NewBRUN returns the BRUN baseline: a random requester applies a uniformly
// random *better* (not necessarily best) response.
func NewBRUN() Policy { return brun{} }

func (brun) Name() string { return "BRUN" }

func (brun) SelectAndUpdate(p *core.Profile, s *rng.Stream) (int, []core.UserID) {
	// Requesters are users with any better response.
	var users []core.UserID
	for i := 0; i < p.Instance().NumUsers(); i++ {
		if len(p.BetterResponses(core.UserID(i))) > 0 {
			users = append(users, core.UserID(i))
		}
	}
	if len(users) == 0 {
		return 0, nil
	}
	u := users[s.Intn(len(users))]
	better := p.BetterResponses(u)
	p.SetChoice(u, better[s.Intn(len(better))])
	return len(users), []core.UserID{u}
}

// --- BUAU: Best Update of All Users ---

type buau struct{}

// NewBUAU returns the BUAU baseline: the platform inspects all requesters
// and selects the single user whose best response maximizes the potential
// increase τ_i.
func NewBUAU() Policy { return buau{} }

func (buau) Name() string { return "BUAU" }

func (buau) SelectAndUpdate(p *core.Profile, s *rng.Stream) (int, []core.UserID) {
	reqs := collectRequests(p, s, true)
	if len(reqs) == 0 {
		return 0, nil
	}
	best := 0
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Tau > reqs[best].Tau {
			best = i
		}
	}
	r := reqs[best]
	p.SetChoice(r.User, r.Route)
	return len(reqs), []core.UserID{r.User}
}

// --- BATS: Bayesian Asynchronous Task Selection (adapted from [5]) ---

type bats struct {
	next int
}

// NewBATS returns the BATS baseline adapted to the route-navigation setting:
// users re-optimize one at a time in a fixed cyclic order. The scheduled
// user adopts its best route even when that brings no strict improvement, so
// decision slots are consumed on users that cannot improve — the behaviour
// §5.3.1 cites for BATS's slow convergence.
func NewBATS() Policy { return &bats{} }

func (*bats) Name() string { return "BATS" }

func (b *bats) SelectAndUpdate(p *core.Profile, s *rng.Stream) (int, []core.UserID) {
	n := p.Instance().NumUsers()
	requesters := 0
	for i := 0; i < n; i++ {
		if len(p.BestResponseSet(core.UserID(i))) > 0 {
			requesters++
		}
	}
	if requesters == 0 {
		return 0, nil
	}
	u := core.UserID(b.next % n)
	b.next++
	delta := p.BestResponseSet(u)
	if len(delta) == 0 {
		// Slot consumed with no movement: the scheduled user re-selects its
		// current best route.
		return requesters, nil
	}
	p.SetChoice(u, delta[s.Intn(len(delta))])
	return requesters, []core.UserID{u}
}

// --- RRN: Random Route Navigation ---

// RunRRN returns the RRN baseline result: every user picks a uniformly
// random route; no decision slots are consumed and no equilibrium is sought.
func RunRRN(in *core.Instance, s *rng.Stream) Result {
	p := core.RandomProfile(in, s)
	return Result{Policy: "RRN", Slots: 0, Converged: true, Profile: p}
}

// FactoryByName maps the paper's algorithm names to policy factories.
func FactoryByName(name string) (PolicyFactory, error) {
	switch name {
	case "DGRN":
		return NewSUU, nil
	case "MUUN":
		return NewPUU, nil
	case "BRUN":
		return NewBRUN, nil
	case "BUAU":
		return NewBUAU, nil
	case "BATS":
		return NewBATS, nil
	}
	return nil, fmt.Errorf("engine: unknown policy %q", name)
}
