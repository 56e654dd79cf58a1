package distributed

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/core"
)

var updateFederatedGolden = flag.Bool("update-federated-golden", false, "rewrite internal/distributed/testdata federated golden transcripts")

// federatedTranscript runs an in-process federation on in with fixed
// seeds and renders its global observer stream: the inProcessTranscript
// lines (init routes, one line per grant), then the potential Φ after
// init and after every round, then an FNV-1a hash of the final choices.
func federatedTranscript(t *testing.T, in *core.Instance, policy SelectionPolicy, K int) []byte {
	t.Helper()
	var buf, pots bytes.Buffer
	lines := inProcessTranscript(&buf)
	stats, err := RunFederatedInProcess(in, FederatedOptions{
		Shards: K,
		Platform: PlatformConfig{
			Policy: policy, Seed: 1, ObservePotential: true,
			Observer: func(o Observation) {
				lines(o)
				fmt.Fprintf(&pots, "phi slot %d %s\n", o.Slot, strconv.FormatFloat(o.Potential, 'g', -1, 64))
			},
		},
	}, InProcessOptions{AgentSeedBase: 1})
	if err != nil {
		t.Fatalf("%s K=%d: %v", policy, K, err)
	}
	h := fnv.New64a()
	for _, c := range stats.Choices {
		fmt.Fprintf(h, "%d,", c)
	}
	buf.Write(pots.Bytes())
	fmt.Fprintf(&buf, "choices fnv64a %016x\n", h.Sum64())
	return buf.Bytes()
}

// TestFederatedGoldenTranscripts pins the federation's observable output
// — grant order, applied routes, per-round Φ and the final profile — to
// transcripts recorded from the coordinator-based federation this
// runtime replaced, on nodeTestInstance (files POLICY_KK.txt), and on
// sparseTestInstance (sparse_POLICY_KK.txt) recorded from the
// every-user-every-slot protocol the dirty-set one replaced. Together with
// TestFederatedMatchesStandalone it is the independent reference for the
// in-process federation. Regenerate with -update-federated-golden only
// when the protocol changes on purpose.
func TestFederatedGoldenTranscripts(t *testing.T) {
	instances := []struct {
		prefix string
		in     *core.Instance
	}{
		{"", nodeTestInstance()},
		{"sparse", sparseTestInstance()},
	}
	for _, inst := range instances {
		for _, policy := range []SelectionPolicy{Deterministic, PUU, SUU} {
			for _, K := range []int{1, 2, 4} {
				name := fmt.Sprintf("%s/K=%d", policy, K)
				file := fmt.Sprintf("%s_K%d.txt", policy, K)
				if inst.prefix != "" {
					name = inst.prefix + "/" + name
					file = inst.prefix + "_" + file
				}
				t.Run(name, func(t *testing.T) {
					got := federatedTranscript(t, inst.in, policy, K)
					path := filepath.Join("testdata", "federated", file)
					if *updateFederatedGolden {
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
}
