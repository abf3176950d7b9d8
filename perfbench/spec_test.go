package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json to the workloads and
// metrics this program reports, and checks the bounds a gate relies on.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spec.Paths, []string{"perfbench"}) {
		t.Errorf("paths = %v", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	largest := 0.0
	for i, m := range spec.EndToEnd {
		want := endToEnd[min(i, len(endToEnd)-1)]
		if len(spec.EndToEnd) != len(endToEnd) || m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name != "setup_s" {
			largest = max(largest, m.Bound)
		}
	}
	if i := slices.IndexFunc(spec.EndToEnd, func(m metricSpec) bool { return m.Name == "setup_s" }); i < 0 || spec.EndToEnd[i].Bound < largest {
		t.Errorf("setup_s must carry the largest bound")
	}
	if !slices.Equal(spec.PerLayer, perLayer()) {
		t.Errorf("per_layer differs from the code's list:\n json %v\n code %v", spec.PerLayer, perLayer())
	}
}
