package sim

import (
	"testing"

	"anubis/internal/memctrl"
	"anubis/internal/trace"
)

// BenchmarkSimHotLoop measures the per-request cost of the simulation
// hot loop (trace generation + controller write path + crypto engine)
// on the AGIT-Plus scheme. With the pooled crypto scratch and the
// run-wide data buffer this path is what every parallel evaluation cell
// spends its time in, so its allocation count is reported explicitly.
func BenchmarkSimHotLoop(b *testing.B) {
	p, ok := trace.ByName("libquantum")
	if !ok {
		b.Fatal("unknown profile")
	}
	cfg := memctrl.DefaultConfig(memctrl.SchemeAGITPlus)
	cfg.MemoryBytes = 64 << 20
	ctrl, err := memctrl.NewBonsai(cfg)
	if err != nil {
		b.Fatal(err)
	}
	gen := trace.NewGenerator(p, 99)
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := Run(ctrl, gen, b.N, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkSimHotLoopSGX is the SGX-family (ASIT) counterpart.
func BenchmarkSimHotLoopSGX(b *testing.B) {
	p, ok := trace.ByName("libquantum")
	if !ok {
		b.Fatal("unknown profile")
	}
	cfg := memctrl.DefaultConfig(memctrl.SchemeASIT)
	cfg.MemoryBytes = 64 << 20
	ctrl, err := memctrl.NewSGX(cfg)
	if err != nil {
		b.Fatal(err)
	}
	gen := trace.NewGenerator(p, 99)
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := Run(ctrl, gen, b.N, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// TestRunSteadyStateZeroAllocs pins the steady-state allocation count
// of the whole request chain — trace generation, controller read/write
// path, crypto engine, paged NVM store — at zero per request. The warm
// phase populates caches, shadow tables, and device pages; after it,
// requests must not touch the heap (Osiris stop-loss counters, WPQ
// occupancy, and wear accounting included).
func TestRunSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates on instrumented accesses; counts are not meaningful")
	}
	testSteadyStateZeroAllocs(t, func(ctrl memctrl.Controller) memctrl.Controller {
		return ctrl
	})
}

// TestForkedRunSteadyStateZeroAllocs repeats the steady-state pin on a
// controller FORKED from the warm one: after Clone's one-time directory
// copies and the COW page copies triggered by the child's first writes,
// the forked request path must be exactly as allocation-free as the
// original. This is the property that lets a recovery sweep fork one
// warm parent into hundreds of trials without heap churn.
func TestForkedRunSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates on instrumented accesses; counts are not meaningful")
	}
	testSteadyStateZeroAllocs(t, func(ctrl memctrl.Controller) memctrl.Controller {
		return ctrl.Clone()
	})
}

func testSteadyStateZeroAllocs(t *testing.T, derive func(memctrl.Controller) memctrl.Controller) {
	for _, tc := range []struct {
		name   string
		scheme memctrl.Scheme
	}{
		{"agit-plus", memctrl.SchemeAGITPlus},
		{"asit", memctrl.SchemeASIT},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, ok := trace.ByName("libquantum")
			if !ok {
				t.Fatal("unknown profile")
			}
			cfg := memctrl.DefaultConfig(tc.scheme)
			// Small enough that the warm phase touches every page of
			// every region: steady state means no first-touch page
			// allocations are left in the paged store.
			cfg.MemoryBytes = 4 << 20
			var (
				ctrl memctrl.Controller
				err  error
			)
			if tc.scheme == memctrl.SchemeASIT {
				ctrl, err = memctrl.NewSGX(cfg)
			} else {
				ctrl, err = memctrl.NewBonsai(cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			gen := trace.NewGenerator(p, 99)
			if _, err := Run(ctrl, gen, 200000, nil); err != nil {
				t.Fatal(err)
			}
			// For the forked variant: derive the measured controller
			// from the warm one, then settle its COW state with a
			// second warm phase (first writes copy shared pages).
			ctrl = derive(ctrl)
			if _, err := Run(ctrl, gen, 200000, nil); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(50, func() {
				if _, err := Run(ctrl, gen, 50, nil); err != nil {
					t.Fatal(err)
				}
			})
			if perReq := avg / 50; perReq > 0.02 {
				t.Errorf("steady-state Run: %.3f allocs/request, want 0", perReq)
			}
		})
	}
}
