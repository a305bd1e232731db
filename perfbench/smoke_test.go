package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the program against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload briefly on the default seed and on a
// second one, untraced and traced, and checks that decisions verify and
// that the metrics are exactly the ones BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, wl := range spec.Workloads {
		names = append(names, wl.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(allWorkloads) {
		t.Errorf("-workload all runs %v, BENCHMARK.json lists %v", allWorkloads, names)
	}
	bin := filepath.Join(t.TempDir(), "alertserve")
	if out, err := exec.Command("go", "build", "-o", bin, "github.com/alert-project/alert/cmd/alertserve").CombinedOutput(); err != nil {
		t.Fatalf("building alertserve: %v\n%s", err, out)
	}
	for _, wl := range spec.Workloads {
		for _, seed := range []int64{1, 2} {
			for _, trace := range []bool{false, true} {
				if trace && seed != 1 {
					continue
				}
				cfg := config{workload: wl.Name, seed: seed, seconds: 2, trace: trace, alertserve: bin, root: ".."}
				res, err := run(cfg, io.Discard)
				if err != nil {
					t.Fatalf("%s seed %d trace %v: %v", wl.Name, seed, trace, err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("%s seed %d trace %v: correct=%v attempted=%d failed=%d", wl.Name, seed, trace, res.Correct, res.Attempted, res.Failed)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				var names []string
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("%s trace %v: metric %s = %+v, want unit %s", wl.Name, trace, m.Name, got, m.Unit)
					}
					names = append(names, m.Name)
				}
				if len(res.Metrics) != len(want) {
					sort.Strings(names)
					t.Errorf("%s trace %v: got %d metrics, BENCHMARK.json declares %d: %v", wl.Name, trace, len(res.Metrics), len(want), names)
				}
				if !trace && !(res.Metrics["energy_per_input_j"].Value > 0 && res.Metrics["loop_p50_us"].Value > 0) {
					t.Errorf("%s seed %d: zero end-to-end metric in %+v", wl.Name, seed, res.Metrics)
				}
			}
		}
	}
}
