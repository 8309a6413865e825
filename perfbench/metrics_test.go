package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestMetricsMatchBenchmarkJSON keeps the metrics the code reports in step
// with the names and units BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	conv := func(ds []metricDef) []def {
		out := make([]def, len(ds))
		for i, d := range ds {
			out[i] = def{d.name, d.unit}
		}
		return out
	}
	if got := conv(endToEndMetrics); !reflect.DeepEqual(got, cfg.EndToEnd) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, cfg.EndToEnd)
	}
	if got := conv(perLayerMetrics); !reflect.DeepEqual(got, cfg.PerLayer) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, cfg.PerLayer)
	}
	for _, w := range cfg.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(cfg.Workloads), len(workloads))
	}
}
