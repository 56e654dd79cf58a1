package distributed

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

var updateStandaloneGolden = flag.Bool("update-standalone-golden", false, "rewrite internal/distributed/testdata standalone golden transcripts")

// denseTestInstance has few tasks and long routes, so most users' routes
// share tasks and PUU batches stay small.
func denseTestInstance() *core.Instance {
	cfg := core.DefaultRandomConfig(16, 6)
	cfg.RoutesMin, cfg.TasksPerRouteMax = 2, 5
	return core.RandomInstance(cfg, rng.New(5))
}

// sparseTestInstance has as many tasks as users, 1–5 routes per user and
// at most 4 tasks per route, so most slots change the counts only a few
// users can see.
func sparseTestInstance() *core.Instance {
	return core.RandomInstance(core.DefaultRandomConfig(48, 48), rng.New(7))
}

// standaloneTranscript runs one standalone platform through RunInProcess
// with fixed seeds and renders its observable output: the grant lines,
// the potential Φ after init and after every slot, the per-slot request
// and batch sizes, the slot and message counts, and an FNV-1a hash of the
// final choices. It also returns the run's registry.
func standaloneTranscript(t *testing.T, in *core.Instance, policy SelectionPolicy) ([]byte, RunStats, *telemetry.Registry) {
	t.Helper()
	var buf, pots bytes.Buffer
	lines := inProcessTranscript(&buf)
	reg := telemetry.NewRegistry()
	stats, err := RunInProcess(in, InProcessOptions{
		Platform: PlatformConfig{
			Policy: policy, Seed: 1, ObservePotential: true, Telemetry: reg,
			Observer: func(o Observation) {
				lines(o)
				fmt.Fprintf(&pots, "phi slot %d %s\n", o.Slot, strconv.FormatFloat(o.Potential, 'g', -1, 64))
			},
		},
		AgentSeedBase: 1,
	})
	if err != nil {
		t.Fatalf("%s: %v", policy, err)
	}
	buf.Write(pots.Bytes())
	fmt.Fprintf(&buf, "requests per slot %v\n", stats.RequestsPerSlot)
	fmt.Fprintf(&buf, "selected per slot %v\n", stats.SelectedPerSlot)
	fmt.Fprintf(&buf, "slots %d converged %t\n", stats.Slots, stats.Converged)
	fmt.Fprintf(&buf, "messages sent %d received %d\n", stats.MessagesSent, stats.MessagesReceived)
	h := fnv.New64a()
	for _, c := range stats.Choices {
		fmt.Fprintf(h, "%d,", c)
	}
	fmt.Fprintf(&buf, "choices fnv64a %016x\n", h.Sum64())
	return buf.Bytes(), stats, reg
}

// TestStandaloneGoldenTranscripts pins the standalone platform's
// observable output to transcripts recorded from the dedicated standalone
// slot loop that the shared nodeRun loop replaced, on the node test
// instance and on a dense one, and from the every-user-every-slot
// protocol the dirty-set one replaced on a sparse one; the dirty-set
// protocol changed only their message counts. It also checks the
// standalone run keeps its unlabelled metric names and times every
// selection exactly once. Regenerate with -update-standalone-golden only
// when the protocol changes on purpose.
func TestStandaloneGoldenTranscripts(t *testing.T) {
	instances := []struct {
		name string
		in   *core.Instance
	}{
		{"node", nodeTestInstance()},
		{"dense", denseTestInstance()},
		{"sparse", sparseTestInstance()},
	}
	for _, inst := range instances {
		for _, policy := range []SelectionPolicy{Deterministic, PUU, SUU} {
			t.Run(fmt.Sprintf("%s/%s", inst.name, policy), func(t *testing.T) {
				got, stats, reg := standaloneTranscript(t, inst.in, policy)
				snap := reg.Snapshot()
				for name := range snap.Counters {
					if strings.Contains(name, "shard=") {
						t.Errorf("standalone run registered sharded counter %s", name)
					}
				}
				for name := range snap.Histograms {
					if strings.Contains(name, "shard=") {
						t.Errorf("standalone run registered sharded histogram %s", name)
					}
				}
				if n := snap.Histograms["distributed_selection_seconds"].Count; n != uint64(stats.Slots) {
					t.Errorf("distributed_selection_seconds counted %d selections in %d slots", n, stats.Slots)
				}

				path := filepath.Join("testdata", "standalone", fmt.Sprintf("%s_%s.txt", inst.name, policy))
				if *updateStandaloneGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("transcript diverges from %s:\n got:\n%s\nwant:\n%s", path, got, want)
				}
			})
		}
	}
}
