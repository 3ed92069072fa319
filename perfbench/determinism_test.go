package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestDeterminism runs every workload twice at a tiny size with the
// traced pass on, and checks that every named metric is reported with
// its unit, that no output is wrong, and that the two runs agree exactly
// on their output digests and work counts.
func TestDeterminism(t *testing.T) {
	counted := []string{"simevent.events", "cache.hit_frac", "diskmodel.spin_transitions",
		"array.retries_per_req", "hibernator.epochs"}
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			run := func() *report {
				o := options{workload: w, seed: 3, seconds: 0.01, trace: true, size: "tiny", tmp: t.TempDir()}
				rep, err := execute(o)
				if err != nil {
					t.Fatal(err)
				}
				if rep.failed != 0 || rep.attempted == 0 {
					t.Fatalf("%d of %d ops failed: %v", rep.failed, rep.attempted, rep.notes)
				}
				return rep
			}
			a, b := run(), run()
			for _, m := range EndToEnd {
				got, ok := a.all[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("end-to-end %s = %+v, want a positive value in %s", m.Name, got, m.Unit)
				}
			}
			for _, m := range PerLayer {
				if got, ok := a.all[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s = %+v, want a value in %s", m.Name, got, m.Unit)
				}
			}
			if !reflect.DeepEqual(a.untraced[0].digests, b.untraced[0].digests) {
				t.Errorf("digests differ between runs:\n%v\n%v", a.untraced[0].digests, b.untraced[0].digests)
			}
			for _, name := range counted {
				if a.all[name] != b.all[name] {
					t.Errorf("%s differs between runs: %v vs %v", name, a.all[name], b.all[name])
				}
			}
		})
	}
}

// TestBenchmarkJSON checks that the repository's BENCHMARK.json names
// exactly the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
		Why  string `json:"why"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if wl, ok := workloads[w.Name]; !ok || wl.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json why %q, program %q", w.Name, w.Why, wl.why)
		}
	}
	same := func(kind string, got []named, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, EndToEnd)
	same("per_layer", spec.PerLayer, PerLayer)
}
