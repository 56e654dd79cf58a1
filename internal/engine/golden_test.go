package engine

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// denseGoldenInstance is a city-shaped game: 200 users over 150 tasks with
// routes covering about 60 tasks each, so every task lies on the routes of
// about 80 users.
func denseGoldenInstance() *core.Instance {
	cfg := core.DefaultRandomConfig(200, 150)
	cfg.TasksPerRouteMax = 120
	return core.RandomInstance(cfg, rng.New(606))
}

// trajectoryHash digests a run: its slot count, its final choices and the
// bits of Φ after every slot.
func trajectoryHash(res Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(res.Slots))
	for _, c := range res.Profile.Choices() {
		put(uint64(c))
	}
	for _, r := range res.History {
		put(math.Float64bits(r.Potential))
	}
	return h.Sum64()
}

// TestGoldenTrajectories pins whole engine runs on a dense instance to the
// slot counts and trajectory hashes recorded before the cached-share,
// mark-once probe kernel replaced the per-candidate evaluation. Any change
// to a ΔP_i bit, a τ_i bit, the selection order or the RNG consumption
// moves a hash.
func TestGoldenTrajectories(t *testing.T) {
	in := denseGoldenInstance()
	cases := []struct {
		name    string
		factory PolicyFactory
		seed    uint64
		slots   int
		hash    uint64
	}{
		{"PUU/seed1", NewPUU, 1, 109, 0xa917219aa1822f6e},
		{"PUU/seed2", NewPUU, 2, 102, 0xfce1d10e24138118},
		{"PUU/seed3", NewPUU, 3, 109, 0x6aa2089d31eaf697},
		{"SUU/seed1", NewSUU, 1, 112, 0xd0a75ac12638dc73},
		{"SUU/seed2", NewSUU, 2, 103, 0x5229e0c28512cc2d},
		{"BUAU/seed1", NewBUAU, 1, 110, 0x4ca65b6a9a615d22},
	}
	for _, tc := range cases {
		res := Run(in, tc.factory, rng.New(tc.seed), Config{RecordHistory: true})
		if !res.Converged {
			t.Fatalf("%s: did not converge", tc.name)
		}
		if got := trajectoryHash(res); res.Slots != tc.slots || got != tc.hash {
			t.Errorf("%s: slots %d hash %#x, recorded slots %d hash %#x", tc.name, res.Slots, got, tc.slots, tc.hash)
		}
	}
}
