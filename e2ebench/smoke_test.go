package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// TestSmoke runs a short untraced and traced run of every workload and
// checks what BENCHMARK.json declares: every named metric is
// printed with its unit and a finite value, no other metric is, and
// the reply oracle passes.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		for trace, want := range map[string][]metricSpec{"0": spec.EndToEnd, "1": spec.PerLayer} {
			t.Run(wl.Name+"/trace"+trace, func(t *testing.T) {
				var out, log bytes.Buffer
				args := []string{"--workload", wl.Name, "--seed", "7", "--seconds", "2", "--trace", trace, "--trace-dir", t.TempDir()}
				if code := run(args, &out, &log); code != 0 {
					t.Fatalf("exit %d\n%s", code, log.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct {
					t.Errorf("oracle failed\n%s", log.String())
				}
				if res.Attempted < 1 || res.Failed < 0 || res.Failed > res.Attempted {
					t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s: unit %q, want %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s: value %v", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestUnknownWorkload checks that a bad invocation fails without
// printing a result.
func TestUnknownWorkload(t *testing.T) {
	var out, log bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &log); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}

// TestFleetPoolDistinct checks that select_fleet's pool holds distinct
// texts, so its compile-cache working set is the size it claims.
func TestFleetPoolDistinct(t *testing.T) {
	svc := new(services)
	defer svc.close()
	in, err := buildFleet(rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2)), svc)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range in.olTexts {
		if seen[s.text] {
			t.Fatalf("duplicate text %q", s.text)
		}
		seen[s.text] = true
	}
}
