package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// plan sizes one workload. Every workload runs the same four phases —
// the figure sweep, the library recovery trials, the serve power
// cycles and the serving load — so every run reports every end-to-end
// metric; the workload decides which phase gets the bulk of the run.
//
// The phases are interleaved in rounds: each round runs one slice of
// every phase. A stretch of slow host time therefore lands on every
// metric's samples a little instead of on one phase's samples
// entirely, and every metric is a median or a rate over samples drawn
// from the whole run.
type plan struct {
	rounds int // a multiple of the sweep's app count: whole passes only
	// window, when set, is how many seconds the rounds fill: the serving
	// load takes whatever the other phases leave of it.
	window float64
	sweep  sweepSpec
	rec    recSpec
	cyc    cycleSpec
	serve  serveSpec
}

// rounds is two passes over the 11 SPEC2006 profiles; the second pass
// must reproduce the first exactly.
const rounds = 22

func planFor(opt options) plan {
	if opt.short {
		return plan{
			rounds: 4,
			sweep:  sweepSpec{requests: 1000, apps: []string{"mcf", "lbm"}},
			rec:    recSpec{fill: 2000, perRound: 1, window: 64, audit: 1},
			cyc:    cycleSpec{tenants: 2, keys: 256, writes: 16, cycles: 2, rounds: 4},
			serve:  serveSpec{tenants: 2, keys: 512, warmup: 0.05, slice: 0.05, direct: 0.1},
		}
	}
	// The secondary size of each phase: enough samples that each timing
	// is a median over tens of samples or a rate over seconds, small
	// enough to leave most of the run to the workload's own phase.
	p := plan{
		rounds: rounds,
		sweep:  sweepSpec{requests: 5000},
		rec:    recSpec{fill: 20000, perRound: 2, window: 256, audit: 5},
		cyc:    cycleSpec{tenants: 2, keys: 4096, writes: 128, cycles: 2 * rounds, rounds: rounds},
		serve:  serveSpec{tenants: 8, keys: 8192, warmup: 0.5, slice: 0.15, direct: 1.5},
	}
	switch opt.workload {
	case "figsweep":
		// Fig 10 + Fig 11 at paper scale: 11 profiles x 40k requests on
		// 256 MiB, 99 cells per pass.
		p.sweep.requests = 40000
	case "serve_kv":
		p.window = opt.seconds
	case "crash_recover":
		// 110 trials per scheme and 11 power cycles of 4 x 16 MiB.
		p.rec = recSpec{fill: 50000, perRound: 5, window: 512, audit: 10}
		p.cyc = cycleSpec{tenants: 4, keys: 16384, writes: 256, cycles: rounds / 2, rounds: rounds}
	}
	return p
}

// loadSlice is the length of round r's serving slice. With a window,
// the load fills what the other phases have left of it, spread evenly
// over the remaining rounds; it never drops below the plan's slice.
func (pl plan) loadSlice(start time.Time, r int) time.Duration {
	d := seconds(pl.serve.slice)
	if pl.window > 0 {
		left := seconds(pl.window) - time.Since(start)
		d = max(d, left/time.Duration(pl.rounds-r))
	}
	return d
}

// prepared is everything a run sets up before its first timed op.
type prepared struct {
	sweep *sweeper
	rec   *recoverer
	cyc   *cycler
	kv    *kvServer
}

func (p *prepared) release() {
	if p.cyc != nil {
		_ = p.cyc.srv.Shutdown("")
		if p.cyc.dir != "" {
			_ = os.RemoveAll(p.cyc.dir)
		}
	}
	if p.kv != nil {
		p.kv.close()
	}
}

func setupAll(b *bench, pl plan) (p *prepared, err error) {
	p = &prepared{}
	defer func() {
		if err != nil {
			p.release()
		}
	}()
	if p.sweep, err = setupSweep(b, pl.sweep); err != nil {
		return nil, err
	}
	if p.rec, err = setupRecovery(b, pl.rec); err != nil {
		return nil, err
	}
	if p.cyc, err = setupCycles(b, pl.cyc); err != nil {
		return nil, err
	}
	if p.kv, err = setupServe(b, pl.serve); err != nil {
		return nil, err
	}
	return p, nil
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

// timedSetup sets up setupReps times, each from the same heap (the
// previous set-up is released first), reports the median time as
// setup_s, and keeps the last set-up.
func timedSetup(b *bench, pl plan) (*prepared, error) {
	var (
		p     *prepared
		times []float64
	)
	for i := 0; i < setupReps; i++ {
		if p != nil {
			p.release()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if p, err = setupAll(b, pl); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	b.setE2E("setup_s", "s", median(times), setupReps)
	return p, nil
}

// runPlan sets up, runs the rounds, and reports every metric.
func runPlan(b *bench) error {
	pl := planFor(b.opt)
	p, err := timedSetup(b, pl)
	if err != nil {
		return err
	}
	defer p.release()
	if err := p.sweep.warmUp(); err != nil {
		return err
	}
	// Each slice runs under a pprof "phase" label named after its phase;
	// Recover calls inside the recovery phase carry "recover" instead.
	var (
		r     int
		start = time.Now()
	)
	slices := []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"figsweep", p.sweep.round},
		{"recovery", func(ctx context.Context) error { p.rec.round(ctx); return nil }},
		{"cycles", func(context.Context) error { return p.cyc.round() }},
		{"serve", func(context.Context) error { p.kv.round(pl.loadSlice(start, r)); return nil }},
	}
	spent := map[string]time.Duration{}
	for r = 0; r < pl.rounds; r++ {
		for _, s := range slices {
			runtime.GC()
			t0 := time.Now()
			var err error
			pprof.Do(context.Background(), pprof.Labels("phase", s.name), func(ctx context.Context) { err = s.run(ctx) })
			if err != nil {
				return fmt.Errorf("round %d %s: %w", r, s.name, err)
			}
			spent[s.name] += time.Since(t0)
		}
	}
	for _, s := range slices {
		fmt.Fprintf(os.Stderr, "e2ebench: %s %.2fs over %d rounds\n", s.name, spent[s.name].Seconds(), pl.rounds)
	}
	for _, finish := range []func() error{p.sweep.finish, p.rec.finish, p.cyc.finish, p.kv.finish} {
		if err := finish(); err != nil {
			return err
		}
	}
	if b.tr != nil {
		leafLayers(b)
	}
	return nil
}
