package main

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildServer compiles cmd/filter-server into a temporary directory.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "filter-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/filter-server")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build filter-server: %v\n%s", err, out)
	}
	return bin
}

func runOnce(t *testing.T, bin string, w *workload, seed uint64, trace bool) map[string]float64 {
	t.Helper()
	cfg := &runConfig{w: w, seed: seed, seconds: 1, trace: trace, serverBin: bin, outDir: t.TempDir(), log: io.Discard}
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", w.name, trace, err)
	}
	if res.failed > 0 || res.falseNeg > 0 {
		t.Fatalf("%s trace=%v: %d failed, %d false negatives", w.name, trace, res.failed, res.falseNeg)
	}
	return res.values
}

// countMetrics must repeat exactly for a fixed seed.
var countMetrics = []string{
	"memory_bits_per_key", "false_positive_rate", "adaptive.key_log_bits_per_key",
	"sharded.skew", "wire.bytes_per_key",
}

// TestCountMetricsRepeat runs every workload twice with one seed, untraced
// and traced, and requires each count metric to be identical: they depend
// only on the generated inputs, never on timing.
func TestCountMetricsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("starts filter-server processes; several seconds per workload")
	}
	bin := buildServer(t)
	for _, name := range workloadNames {
		w := workloads[name]
		for _, trace := range []bool{false, true} {
			a := runOnce(t, bin, w, 7, trace)
			b := runOnce(t, bin, w, 7, trace)
			seen := 0
			for _, m := range countMetrics {
				va, okA := a[m]
				vb, okB := b[m]
				if okA != okB {
					t.Errorf("%s trace=%v: %s reported by one run only", name, trace, m)
					continue
				}
				if !okA {
					continue
				}
				seen++
				if va != vb {
					t.Errorf("%s trace=%v: %s = %v then %v", name, trace, m, va, vb)
				}
			}
			if seen == 0 {
				t.Errorf("%s trace=%v: no count metric reported", name, trace)
			}
		}
	}
}

// TestInputsDeterministicAndDisjoint checks the generator: one seed gives
// byte-identical request bodies, and no key of the false-positive set was
// ever inserted.
func TestInputsDeterministicAndDisjoint(t *testing.T) {
	for _, name := range workloadNames {
		w := workloads[name]
		a, b := generate(w, 3), generate(w, 3)
		for c := range a.perConn {
			for i := range a.perConn[c] {
				if string(a.perConn[c][i].body) != string(b.perConn[c][i].body) {
					t.Fatalf("%s: connection %d batch %d differs between generations", name, c, i)
				}
			}
		}
		inserted := make(map[uint32]bool, len(a.inserted))
		for _, k := range a.inserted {
			if inserted[k] {
				t.Fatalf("%s: key %d listed twice as distinct", name, k)
			}
			inserted[k] = true
		}
		for _, k := range a.fpr {
			if inserted[k] {
				t.Fatalf("%s: false-positive key %d was inserted", name, k)
			}
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workload and metric
// lists in step with what the program runs and reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], program %s [%s]",
					kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
