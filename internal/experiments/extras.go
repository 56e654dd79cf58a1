package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/optimal"
	"repro/internal/report"
	"repro/internal/stats"
)

// The drivers in this file go beyond the paper's published tables and
// figures: they validate the theoretical claims empirically (Theorem 4) and
// measure properties the paper argues qualitatively (communication cost of
// the distributed protocol). They are registered alongside the paper
// experiments under "extra-*" IDs.

// ExtraTheorem4 empirically validates the Theorem-4 convergence bound: for
// each scenario size it reports the measured decision slots of DGRN, the
// bound evaluated with the observed minimum potential improvement, and the
// margin. The bound must always dominate the measurement.
func ExtraTheorem4(opts Options) ([]*report.Table, error) {
	opts = opts.withDefaults()
	spec := opts.Datasets[0]
	w, err := worldFor(spec, opts.Seed)
	if err != nil {
		return nil, err
	}
	t := report.New(
		fmt.Sprintf("Extra (Theorem 4, %s): measured convergence slots vs analytic bound (%d reps)", spec.Name, opts.Reps),
		"users", "measured_slots", "bound", "bound/measured", "violations")
	for _, users := range []int{10, 20, 30, 40} {
		var slots, bounds, ratios stats.Acc
		violations := 0
		for rep := 0; rep < opts.Reps; rep++ {
			s := repStream(opts.Seed, "extra-theorem4", rep*100+users)
			sc, err := w.BuildScenario(ScenarioConfig{Users: users, Tasks: 40}, s.Child())
			if err != nil {
				return nil, err
			}
			res := engine.Run(sc.Instance, engine.NewSUU, s.Child(), engine.Config{RecordHistory: true})
			if !res.Converged {
				return nil, fmt.Errorf("experiments: theorem4 run did not converge")
			}
			// Observed minimum per-update potential increase → ΔP_min via
			// ΔP_i = α_i ΔΦ ≥ e_min ΔΦ.
			dPhiMin := math.Inf(1)
			for i := 1; i < len(res.History); i++ {
				if d := res.History[i].Potential - res.History[i-1].Potential; d > 0 && d < dPhiMin {
					dPhiMin = d
				}
			}
			if math.IsInf(dPhiMin, 1) {
				continue // converged without any update
			}
			eMin, _ := sc.Instance.WeightBounds()
			bound := metrics.ConvergenceBound(sc.Instance, dPhiMin*eMin)
			slots.Add(float64(res.Slots))
			bounds.Add(bound)
			if bound > 0 && !math.IsInf(bound, 1) {
				ratios.Add(bound / float64(res.Slots))
			}
			if float64(res.Slots) >= bound {
				violations++
			}
		}
		t.Add(report.I(users), report.F(slots.Mean()), report.F(bounds.Mean()),
			report.F(ratios.Mean()), report.I(violations))
	}
	return []*report.Table{t}, nil
}

// ExtraMessages measures the communication cost of the distributed
// protocol: platform-side messages sent/received until convergence, under
// SUU and PUU, versus user count. PUU converges in fewer slots, so it
// exchanges fewer messages despite granting more users per slot; the gap
// is narrow because a slot queries only the users whose view changed.
func ExtraMessages(opts Options) ([]*report.Table, error) {
	opts = opts.withDefaults()
	spec := opts.Datasets[0]
	w, err := worldFor(spec, opts.Seed)
	if err != nil {
		return nil, err
	}
	t := report.New(
		fmt.Sprintf("Extra (messages, %s): protocol traffic to convergence (%d reps)", spec.Name, opts.Reps),
		"users", "SUU_sent", "SUU_recv", "SUU_slots", "PUU_sent", "PUU_recv", "PUU_slots")
	for _, users := range []int{10, 20, 30} {
		accs := map[distributed.SelectionPolicy]*[3]stats.Acc{
			distributed.SUU: {}, distributed.PUU: {},
		}
		for rep := 0; rep < opts.Reps; rep++ {
			s := repStream(opts.Seed, "extra-messages", rep*100+users)
			sc, err := w.BuildScenario(ScenarioConfig{Users: users, Tasks: 30}, s.ChildN(1))
			if err != nil {
				return nil, err
			}
			for _, policy := range []distributed.SelectionPolicy{distributed.SUU, distributed.PUU} {
				st, err := distributed.RunInProcess(sc.Instance, distributed.InProcessOptions{
					Platform:      distributed.PlatformConfig{Policy: policy, Seed: opts.Seed + uint64(rep)},
					AgentSeedBase: uint64(rep) * 7,
				})
				if err != nil {
					return nil, err
				}
				if !st.Converged {
					return nil, fmt.Errorf("experiments: messages run did not converge")
				}
				// Verify the outcome before counting its cost.
				p, err := core.NewProfile(sc.Instance, st.Choices)
				if err != nil {
					return nil, err
				}
				if !p.IsNash() {
					return nil, fmt.Errorf("experiments: messages run not Nash")
				}
				a := accs[policy]
				a[0].Add(float64(st.MessagesSent))
				a[1].Add(float64(st.MessagesReceived))
				a[2].Add(float64(st.Slots))
			}
		}
		suu, puu := accs[distributed.SUU], accs[distributed.PUU]
		t.Add(report.I(users),
			report.F(suu[0].Mean()), report.F(suu[1].Mean()), report.F(suu[2].Mean()),
			report.F(puu[0].Mean()), report.F(puu[1].Mean()), report.F(puu[2].Mean()))
	}
	return []*report.Table{t}, nil
}

// ExtraGreedy compares DGRN's distributed equilibrium against the
// centralized greedy + local-search heuristic (and RRN) at user scales far
// beyond the exact solver's reach — extending Fig. 7's story to the sizes
// of Fig. 4. The heuristic upper-bounds neither side, but empirically
// tracks the optimum closely at small sizes (see optimal's tests).
func ExtraGreedy(opts Options) ([]*report.Table, error) {
	opts = opts.withDefaults()
	var tables []*report.Table
	for _, spec := range opts.Datasets {
		w, err := worldFor(spec, opts.Seed)
		if err != nil {
			return nil, err
		}
		t := report.New(
			fmt.Sprintf("Extra (greedy, %s): total profit at large scale (%d reps)", spec.Name, opts.Reps),
			"users", "DGRN", "Greedy+LS", "RRN", "DGRN/GreedyLS")
		for _, users := range []int{20, 40, 60, 80, 100} {
			users := users
			vals, err := perRep(opts, func(rep int) ([]float64, error) {
				s := repStream(opts.Seed, "extra-greedy"+spec.Name, rep*1000+users)
				sc, err := w.BuildScenario(ScenarioConfig{Users: users, Tasks: 60}, s.Child())
				if err != nil {
					return nil, err
				}
				res := engine.Run(sc.Instance, engine.NewSUU, s.Child(), engine.Config{})
				gls, err := optimal.GreedyWithLocalSearch(sc.Instance)
				if err != nil {
					return nil, err
				}
				rrn := engine.RunRRN(sc.Instance, s.Child()).Profile.TotalProfit()
				return []float64{res.Profile.TotalProfit(), gls.Total, rrn}, nil
			})
			if err != nil {
				return nil, err
			}
			accs := accumulate(vals, 3)
			ratio := 0.0
			if accs[1].Mean() != 0 {
				ratio = accs[0].Mean() / accs[1].Mean()
			}
			t.Add(report.I(users), report.F(accs[0].Mean()), report.F(accs[1].Mean()),
				report.F(accs[2].Mean()), report.F(ratio))
		}
		tables = append(tables, t)
	}
	return tables, nil
}
