package main

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/task"
)

// This file is the benchmark's own input generator for the sparse
// workloads: a Table-2 abstract instance (no geography) with M users, N
// tasks and at most maxTasksPerRoute tasks per route. Task subsets are
// drawn with Floyd's algorithm, O(k) draws per route, so generation stays
// linear in M however large N is. It deliberately does not call
// core.RandomInstance: the benchmark's inputs must not move when that
// harness helper changes.

// sparseParams sizes one sparse instance.
type sparseParams struct {
	Users            int `json:"users"`
	Tasks            int `json:"tasks"`
	MaxTasksPerRoute int `json:"max_tasks_per_route"`
}

// genSparse draws one instance from the stream. Ranges follow Table 2:
// rewards a_k in [10,20], µ_k in [0,1], user weights in [0.1,0.9], φ and θ
// in [0.1,0.8], 1–5 routes per user, route 0 the shortest (zero detour).
func genSparse(p sparseParams, s *rng.Stream) *core.Instance {
	in := &core.Instance{
		Phi:   s.Uniform(0.1, 0.8),
		Theta: s.Uniform(0.1, 0.8),
		EMin:  0.1,
		EMax:  0.9,
	}
	in.Tasks = make([]task.Task, p.Tasks)
	for k := range in.Tasks {
		in.Tasks[k] = task.Task{ID: task.ID(k), A: s.Uniform(10, 20), Mu: s.Uniform(0, 1)}
	}
	in.Users = make([]core.User, p.Users)
	for i := range in.Users {
		u := core.User{
			ID:    core.UserID(i),
			Alpha: s.Uniform(0.1, 0.9),
			Beta:  s.Uniform(0.1, 0.9),
			Gamma: s.Uniform(0.1, 0.9),
		}
		u.Routes = make([]core.Route, s.IntRange(1, 5))
		for r := range u.Routes {
			route := core.Route{User: u.ID, Congestion: s.Uniform(0, 15)}
			if r > 0 {
				route.Detour = s.Uniform(0, 15)
			}
			if k := s.IntRange(0, min(p.MaxTasksPerRoute, p.Tasks)); k > 0 {
				route.Tasks = floydSample(p.Tasks, k, s)
			}
			u.Routes[r] = route
		}
		in.Users[i] = u
	}
	return in
}

// floydSample returns k distinct task IDs from [0,n) in ascending order
// using Floyd's algorithm: k draws, membership checked by a linear scan
// (k is at most a handful).
func floydSample(n, k int, s *rng.Stream) []task.ID {
	out := make([]task.ID, 0, k)
	for j := n - k; j < n; j++ {
		t := task.ID(s.Intn(j + 1))
		for _, have := range out {
			if have == t {
				t = task.ID(j)
				break
			}
		}
		out = append(out, t)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// sparseJSON generates one instance and serializes it the way platformd
// -instance expects it on disk.
func sparseJSON(p sparseParams, s *rng.Stream) ([]byte, error) {
	var buf bytes.Buffer
	if err := genSparse(p, s).WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("sparse instance: %w", err)
	}
	return buf.Bytes(), nil
}
