package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchmarkJSONMatchesProgram keeps the repository's BENCHMARK.json
// and the metrics this program emits in step: same workloads, same metric
// names, same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(workloads()) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(names), len(workloads()))
	}
	same := func(kind string, declared []metric, emitted []metricDef) {
		if len(declared) != len(emitted) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program emits %d", kind, len(declared), len(emitted))
			return
		}
		for i, m := range declared {
			if m.Name != emitted[i].name || m.Unit != emitted[i].unit {
				t.Errorf("%s metric %d: declared %s [%s], emitted %s [%s]", kind, i, m.Name, m.Unit, emitted[i].name, emitted[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
