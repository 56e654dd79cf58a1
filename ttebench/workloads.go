package main

import (
	"fmt"
	"math"

	"repro/internal/distributed"
)

// runtimeKind names the runtime a workload drives.
type runtimeKind int

const (
	kindEngine runtimeKind = iota // engine.RunFrom, one call per slot
	kindSync                      // distributed.New(...).Run, one platform
	kindFed                       // distributed.RunFederated, K in-process shards
	kindNode                      // K distributed.ServeNode peers over loopback TCP
)

// cityParams sizes a city scenario: trace.Shanghai() with Trips trips
// generated from DatasetSeed, then BuildScenario with Users users and
// Tasks tasks drawn from the benchmark seed. The city (road network and
// taxi trips) is the workload's fixed dataset, as a real deployment has
// one city; it is still generated cold on every run.
type cityParams struct {
	Trips       int    `json:"trips"`
	DatasetSeed uint64 `json:"dataset_seed"`
	Users       int    `json:"users"`
	Tasks       int    `json:"tasks"`
}

// workload is one named benchmark input family. Exactly one of city and
// sparse is set.
type workload struct {
	Name     string                      `json:"name"`
	Kind     runtimeKind                 `json:"-"`
	Runtime  string                      `json:"runtime"`
	City     *cityParams                 `json:"city,omitempty"`
	Sparse   *sparseParams               `json:"sparse,omitempty"`
	Policy   distributed.SelectionPolicy `json:"policy"`
	Shards   int                         `json:"shards,omitempty"`
	MaxSlots int                         `json:"max_slots"`
	// SolveSeconds is the nominal time of one cold solve (setup, solve and
	// certification) on the reference host, a 2-CPU KVM guest. It only
	// turns --seconds into a solve count; see solvesFor.
	SolveSeconds float64 `json:"solve_seconds"`
}

// solvesFor is the number of cold solves a run makes for a --seconds
// budget: the budget over the nominal solve time, at least one. It
// depends on the budget alone, never on how fast this build runs, so
// every build solves the same inputs for the same seed.
func (w workload) solvesFor(seconds float64) int {
	return max(1, int(math.Round(seconds/w.SolveSeconds)))
}

// maxSlots bounds every run; hitting it is a non-convergence failure.
// Theorem 4 bounds the slots far below this for every size used here.
const maxSlots = 20000

// workloads returns the four workloads at full size. See README.md for
// why each exists and which layer it stresses.
func workloads() []workload {
	return []workload{
		{
			Name: "city-engine", Kind: kindEngine, Runtime: "engine.RunFrom",
			City:   &cityParams{Trips: 2000, DatasetSeed: 1, Users: 2000, Tasks: 1000},
			Policy: distributed.PUU, MaxSlots: maxSlots,
			SolveSeconds: 2.6,
		},
		{
			Name: "city-sync", Kind: kindSync, Runtime: "distributed.New+Run",
			City:   &cityParams{Trips: 2000, DatasetSeed: 1, Users: 250, Tasks: 125},
			Policy: distributed.PUU, MaxSlots: maxSlots,
			SolveSeconds: 0.37,
		},
		{
			Name: "sparse-fed-det", Kind: kindFed, Runtime: "distributed.RunFederated",
			Sparse: &sparseParams{Users: 200, Tasks: 200, MaxTasksPerRoute: 4},
			Policy: distributed.Deterministic, Shards: 2, MaxSlots: maxSlots,
			SolveSeconds: 0.47,
		},
		{
			Name: "sparse-node-det", Kind: kindNode, Runtime: "distributed.ServeNode",
			Sparse: &sparseParams{Users: 200, Tasks: 200, MaxTasksPerRoute: 4},
			Policy: distributed.Deterministic, Shards: 2, MaxSlots: maxSlots,
			SolveSeconds: 0.47,
		},
	}
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want city-engine, city-sync, sparse-fed-det or sparse-node-det)", name)
}
