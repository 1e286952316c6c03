package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// manifest is the part of BENCHMARK.json the tests check against.
type manifest struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func shortRun(t *testing.T, workload string, seed int64, trace bool, fault string) result {
	t.Helper()
	opt := options{workload: workload, seed: seed, seconds: 1, trace: trace, out: t.TempDir(), short: true, fault: fault}
	res, err := runWorkload(opt, time.Now(), io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// TestSmokeEmitsEveryMetric runs every workload in short mode, untraced
// and traced, and checks that each emits exactly the metrics
// BENCHMARK.json names, with their units, and no failed operation.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	m := loadManifest(t)
	if len(m.Workloads) == 0 {
		t.Fatal("no workloads in BENCHMARK.json")
	}
	for _, w := range m.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Fatalf("BENCHMARK.json names workload %q the benchmark does not have", w.Name)
		}
		for _, trace := range []bool{false, true} {
			res := shortRun(t, w.Name, goldenSeed, trace, "")
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := m.EndToEnd
			if trace {
				want = m.PerLayer
			}
			for _, wm := range want {
				got, ok := res.Metrics[wm.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, wm.Name)
				} else if got.Unit != wm.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", w.Name, trace, wm.Name, got.Unit, wm.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// TestFaultInjectionFails corrupts a data block and a counter block in
// short runs; every workload must report failed operations.
func TestFaultInjectionFails(t *testing.T) {
	for _, name := range workloads {
		for _, fault := range []string{"data", "counter"} {
			res := shortRun(t, name, goldenSeed, false, fault)
			if res.Correct || res.Failed == 0 {
				t.Errorf("%s with %s fault: correct=%v failed=%d, want a failed operation", name, fault, res.Correct, res.Failed)
			}
		}
	}
}

// TestGoldenMismatchFails proves the figure check is not vacuous: with
// a wrong golden digest the sweep must count a failure.
func TestGoldenMismatchFails(t *testing.T) {
	requests := planFor(options{short: true}).sweep.requests
	saved, ok := goldenSweep[requests]
	if !ok {
		t.Fatalf("no golden digest for %d requests per cell", requests)
	}
	goldenSweep[requests] = "0000000000000000"
	defer func() { goldenSweep[requests] = saved }()
	res := shortRun(t, "figsweep", goldenSeed, false, "")
	if res.Correct || res.Failed == 0 {
		t.Errorf("figsweep with a wrong golden digest: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// TestSimulatedCountsRepeat checks that the simulated per-layer counts
// — cache hit rates, NVM writes per request, stall shares, recovery op
// counts and phase totals — repeat exactly across two traced runs at a
// held-out seed, and that the seed runs with zero failures.
func TestSimulatedCountsRepeat(t *testing.T) {
	const heldOut = 7
	a := shortRun(t, "crash_recover", heldOut, true, "")
	b := shortRun(t, "crash_recover", heldOut, true, "")
	for _, r := range []result{a, b} {
		if !r.Correct || r.Failed != 0 {
			t.Fatalf("seed %d: correct=%v failed=%d", heldOut, r.Correct, r.Failed)
		}
	}
	n := 0
	for _, m := range loadManifest(t).PerLayer {
		if !simulated(m.Name) {
			continue
		}
		n++
		ma, okA := a.Metrics[m.Name]
		mb, okB := b.Metrics[m.Name]
		if !okA || !okB || ma != mb {
			t.Errorf("%s: %v then %v at the same seed", m.Name, ma.Value, mb.Value)
		}
	}
	if n == 0 {
		t.Error("BENCHMARK.json names no simulated per-layer metric")
	}
}

// simulated reports whether a per-layer metric is a simulated count,
// exact at a given seed.
func simulated(name string) bool {
	for _, p := range []string{"cache.counter_hit_pct", "cache.tree_hit_pct", "nvm.writes_per_req",
		"memctrl.shadow_writes_per_kreq", "obs.stall_", "recovery."} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}
