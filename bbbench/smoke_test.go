package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smokeConfig runs a workload at tiny size for one second.
func smokeConfig(workload string, trace bool, bad corruption) runConfig {
	return runConfig{workload: workload, seed: 7, window: time.Second, trace: trace, size: tinySize, setupReps: 1, bad: bad}
}

// declared reads the metrics BENCHMARK.json at the repository root
// declares, by name and unit.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload, untraced and traced, and requires each
// run to pass its output checks and print exactly the metrics, with the
// units, that BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			name := sp.name
			want := endToEnd
			if trace {
				name, want = name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				res, err := run(smokeConfig(sp.name, trace, corruptNone), io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("run failed its checks: %+v", res)
				}
				for name, unit := range want {
					if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
						t.Errorf("metric %s: got %+v, BENCHMARK.json declares unit %s", name, m, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not declared in BENCHMARK.json", name)
					}
				}
				if trace && res.Metrics["circuit.and_gates"].Value <= 0 {
					t.Errorf("circuit.and_gates = %v", res.Metrics["circuit.and_gates"].Value)
				}
			})
		}
	}
}

// TestCorruptedExpectationFails shows that the output checks can fail: a
// wrong expected digest or echo, or one planted hit missing from the
// ground truth, must make every workload's run incorrect.
func TestCorruptedExpectationFails(t *testing.T) {
	for _, sp := range specs {
		for _, bad := range []corruption{corruptDigest, corruptHit} {
			res, err := run(smokeConfig(sp.name, false, bad), io.Discard)
			if err != nil {
				t.Fatalf("%s corruption %d: %v", sp.name, bad, err)
			}
			if res.Correct {
				t.Errorf("%s: run with corruption %d passed its checks", sp.name, bad)
			}
		}
	}
}
