package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// buildServer compiles parapll-server from the tree under test.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "parapll-server")
	cmd := exec.Command("go", "build", "-o", bin, "parapll/cmd/parapll-server")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building parapll-server: %v\n%s", err, out)
	}
	return bin
}

// smokeConfig is a workload at smoke scale: a small graph, one
// launch, a one-second window.
func smokeConfig(t *testing.T, bin, name string) config {
	t.Helper()
	wl, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return config{
		wl: wl, seed: 7, seconds: 1, trace: true, serverBin: bin, workDir: t.TempDir(),
		setups: 1, warmup: 200 * time.Millisecond, scale: 0.03,
	}
}

// declared returns the metric names BENCHMARK.json lists under key.
func declared(t *testing.T, key string) []string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(doc[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

func produced(ms []metric) []string {
	var names []string
	for _, m := range ms {
		names = append(names, m.Name+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d metrics %v, BENCHMARK.json declares %d %v", what, len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: metric %q, BENCHMARK.json declares %q", what, got[i], want[i])
		}
	}
}

// Every workload runs end to end at smoke scale, passes its correctness
// gate, and prints exactly the metrics BENCHMARK.json declares.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real server processes")
	}
	bin := buildServer(t)
	wantE2E, wantLayers := declared(t, "end_to_end"), declared(t, "per_layer")
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			out, err := run(context.Background(), smokeConfig(t, bin, wl.name))
			if err != nil {
				t.Fatal(err)
			}
			if !out.correct || out.failed != 0 || out.attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", out.correct, out.attempted, out.failed, out.why)
			}
			sameNames(t, "end_to_end", produced(out.endToEnd), wantE2E)
			sameNames(t, "per_layer", produced(out.layers), wantLayers)
			for _, m := range out.endToEnd {
				if !(m.Value > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", m.Name, m.Value)
				}
			}
		})
	}
}

// An oracle that is off by one must fail every workload's run: the
// gate is what makes "correct" mean something.
func TestGateFailsWrongOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real server processes")
	}
	bin := buildServer(t)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			cfg := smokeConfig(t, bin, wl.name)
			cfg.trace = false
			cfg.skew = 1
			out, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if out.correct || out.failed == 0 {
				t.Fatalf("off-by-one oracle passed: correct=%v failed=%d", out.correct, out.failed)
			}
		})
	}
}

func TestSlicedMedian(t *testing.T) {
	// Nine calm slices and one stalled one: the figure follows the calm.
	var ops []op
	for i := 0; i < slices; i++ {
		lat := time.Millisecond
		if i == 3 {
			lat = time.Second
		}
		for k := 0; k < 100; k++ {
			ops = append(ops, op{at: time.Duration(i)*time.Second + time.Duration(k)*time.Millisecond, lat: lat, pairs: 1})
		}
	}
	win := slices * time.Second
	if got := sliced(ops, win, quantileOf(0.99)); got != 1000 {
		t.Fatalf("sliced p99 = %vus, want 1000", got)
	}
	if got := sliced(ops, win, pairsPerSecond); got != 100 {
		t.Fatalf("sliced rate = %v/s, want 100", got)
	}
}
