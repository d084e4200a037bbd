package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the harness must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileMatchesHarness(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), harness %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(set string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", set, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], harness %s [%s]", set, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
}

// TestSmoke runs every workload at the smoke sizes, untraced and traced,
// and requires a passing result line with the declared metric set.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w.name, "--seed", "7", "--seconds", "0.2", "--trace", trace, "--smoke"}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res resultJSON
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(want) {
					t.Fatalf("result %+v", res)
				}
				if trace == "0" && res.Metrics["success_share"].Value != 1 {
					t.Errorf("success_share %v, want 1", res.Metrics["success_share"].Value)
				}
			})
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}

// TestServeSequenceDeterministic pins the serve-mix contract that the
// seed alone fixes every client's request sequence.
func TestServeSequenceDeterministic(t *testing.T) {
	draw := func() []string {
		var out []string
		for id := 0; id < 2; id++ {
			c := newServeClient(42, id, 2, "")
			for i := 0; i < 200; i++ {
				s, kind := c.next()
				out = append(out, kindSpan[kind]+" "+string(c.specs[s].body))
			}
		}
		return out
	}
	a, b := draw(), draw()
	seen := map[string]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs: %s vs %s", i, a[i], b[i])
		}
		if !strings.HasPrefix(a[i], "serve.hit") {
			seen[a[i][strings.Index(a[i], " ")+1:]]++
		}
	}
	for body, n := range seen {
		if n > 1 {
			t.Errorf("spec drawn %d times as new: %s", n, body)
		}
	}
}
