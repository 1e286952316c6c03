package figures

import (
	"context"
	"fmt"
	"sort"

	"anubis/internal/memctrl"
	"anubis/internal/obs"
	"anubis/internal/parallel"
	"anubis/internal/sim"
	"anubis/internal/trace"
	"io"
)

// Crash/recovery sweep with warm-state forking.
//
// The paper validates its recovery-time claims by crashing the same
// warmed-up system at many points and measuring each recovery (the
// Phoenix/Triad-NVM evaluation shape). Re-building a controller and
// replaying the fill phase per trial makes the fill dominate the sweep;
// instead, RecoverySweep warms ONE controller per (scheme, app, seed)
// and forks it per trial via Controller.Clone — the NVM image is shared
// copy-on-write, so N trials pay one fill plus N×(measurement window +
// recovery). Forked trials are byte-identical to cold-started ones
// (asserted by TestRecoverySweepForkEqualsCold), so ColdStart exists
// only for that equivalence check and for timing A/B runs.

// RecoverySweepConfig parameterizes a crash/recovery sweep.
type RecoverySweepConfig struct {
	// Run supplies scale, seed, cache overrides, the worker pool, and
	// the shared trace arenas.
	Run RunConfig
	// Scheme/Family select the controller under test.
	Scheme memctrl.Scheme
	Family sim.Family
	// App names the workload profile (default: first of Run's set).
	App string
	// Warm is the fill-phase length in requests: the state every trial
	// starts from. Defaults to Run.Requests.
	Warm int
	// Trials is the number of crash points. Trial t executes
	// (t+1)*ExtraPerTrial requests past the warm point, crashes, and
	// recovers, so crash points spread over a growing window.
	Trials int
	// ExtraPerTrial is the crash-point stride (default 200 requests).
	ExtraPerTrial int
	// ColdStart disables forking: every trial re-fills a fresh
	// controller from scratch. Exists for the fork-vs-cold golden
	// equivalence tests and for timing A/B; results are byte-identical.
	ColdStart bool
}

// RecoveryTrial is one crash point's outcome.
type RecoveryTrial struct {
	Extra  int                    `json:"extra"`  // requests executed past the warm point before the crash
	Window sim.Result             `json:"window"` // the post-warm measurement window
	Report memctrl.RecoveryReport `json:"report"`
}

// RecoverySweepResult aggregates a sweep.
type RecoverySweepResult struct {
	Scheme memctrl.Scheme  `json:"scheme"`
	App    string          `json:"app"`
	Warm   int             `json:"warm"`
	Cold   bool            `json:"cold"`
	Trials []RecoveryTrial `json:"trials"`

	// ReadLat/WriteLat merge every trial's measurement-window histogram
	// (via LatencyHist.Merge), in trial order.
	ReadLat  sim.LatencyHist `json:"read_latency"`
	WriteLat sim.LatencyHist `json:"write_latency"`

	// PhaseTotals merges every trial's recovery-phase ledger; its total
	// equals the sum of the trials' modeled recovery times exactly
	// (each trial's ledger is sum-exact, DESIGN.md §16).
	PhaseTotals obs.RecLedger `json:"recovery_phase_ns"`
}

// ModeledRecoveryNS returns the min/mean/max of the modeled recovery
// time across trials.
func (r *RecoverySweepResult) ModeledRecoveryNS() (min, mean, max uint64) {
	if len(r.Trials) == 0 {
		return 0, 0, 0
	}
	var sum uint64
	for i, t := range r.Trials {
		ns := t.Report.ModeledNS()
		sum += ns
		if i == 0 || ns < min {
			min = ns
		}
		if ns > max {
			max = ns
		}
	}
	return min, sum / uint64(len(r.Trials)), max
}

// RecoveryPercentileNS returns the p-th percentile of the modeled
// recovery-time distribution across trials.
func (r *RecoverySweepResult) RecoveryPercentileNS(p float64) uint64 {
	if len(r.Trials) == 0 {
		return 0
	}
	ns := make([]uint64, len(r.Trials))
	for i, t := range r.Trials {
		ns[i] = t.Report.ModeledNS()
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	k := int(float64(len(ns))*p/100) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(ns) {
		k = len(ns) - 1
	}
	return ns[k]
}

func (c *RecoverySweepConfig) defaults() (trace.Profile, error) {
	if c.Warm <= 0 {
		c.Warm = c.Run.Requests
	}
	if c.Trials <= 0 {
		c.Trials = 10
	}
	if c.ExtraPerTrial <= 0 {
		c.ExtraPerTrial = 200
	}
	if c.App == "" {
		c.App = c.Run.profiles()[0].Name
	}
	p, ok := trace.ByName(c.App)
	if !ok {
		return trace.Profile{}, fmt.Errorf("figures: unknown app %q", c.App)
	}
	return p, nil
}

// RecoverySweep executes the sweep and returns the per-trial recovery
// reports plus the merged measurement-window histograms. Results are
// deterministic and independent of the worker count, and identical
// between forked and cold-started modes.
func RecoverySweep(c RecoverySweepConfig) (*RecoverySweepResult, error) {
	prof, err := c.defaults()
	if err != nil {
		return nil, err
	}
	maxReq := c.Warm + c.Trials*c.ExtraPerTrial
	// Forked trials resume consumption mid-stream, which needs a
	// materialized arena; build a private one if the RunConfig doesn't
	// carry a cache.
	var arena *trace.Arena
	if c.Run.Arenas != nil {
		arena = c.Run.Arenas.Get(prof, c.Run.Seed, maxReq)
	} else {
		arena = trace.NewArena(prof, c.Run.Seed, maxReq)
	}
	cfg := c.Run.config(c.Scheme)

	out := &RecoverySweepResult{Scheme: c.Scheme, App: c.App, Warm: c.Warm, Cold: c.ColdStart}
	out.Trials = make([]RecoveryTrial, c.Trials)

	var warm memctrl.Controller
	if !c.ColdStart {
		// One fill for the whole sweep.
		warm, err = sim.NewController(c.Family, cfg)
		if err != nil {
			return nil, err
		}
		if _, err := sim.Run(warm, arena.Source(), c.Warm, nil); err != nil {
			return nil, fmt.Errorf("figures: recovery warm-up: %w", err)
		}
	}
	// Clone sequentially (Fork freezes the parent's page stores, which
	// must not race), then run the trials on the pool: forked children
	// only read the shared frozen pages and copy-on-write into their own
	// directories, so trials are mutually independent.
	children := make([]memctrl.Controller, c.Trials)
	if !c.ColdStart {
		for t := range children {
			children[t] = warm.Clone()
		}
	}
	trials, err := parallel.Map(c.Run.pool(), c.Trials, func(_ context.Context, t int) (RecoveryTrial, error) {
		extra := (t + 1) * c.ExtraPerTrial
		ctrl := children[t]
		if c.ColdStart {
			// Cold start replays the identical fill phase as its own
			// first Run call, matching the forked path request-for-
			// request and fill-pattern-for-fill-pattern.
			cold, err := sim.NewController(c.Family, cfg)
			if err != nil {
				return RecoveryTrial{}, err
			}
			if _, err := sim.Run(cold, arena.Source(), c.Warm, nil); err != nil {
				return RecoveryTrial{}, fmt.Errorf("figures: trial %d cold fill: %w", t, err)
			}
			ctrl = cold
		}
		window, err := sim.Run(ctrl, arena.SourceAt(c.Warm), extra, nil)
		if err != nil {
			return RecoveryTrial{}, fmt.Errorf("figures: trial %d window: %w", t, err)
		}
		ctrl.Crash()
		rep, err := ctrl.Recover()
		if err != nil {
			return RecoveryTrial{}, fmt.Errorf("figures: trial %d recovery: %w", t, err)
		}
		return RecoveryTrial{Extra: extra, Window: window, Report: *rep}, nil
	})
	if err != nil {
		return nil, err
	}
	for t := range trials {
		out.Trials[t] = trials[t]
		out.ReadLat.Merge(&trials[t].Window.ReadLat)
		out.WriteLat.Merge(&trials[t].Window.WriteLat)
		out.PhaseTotals.Merge(&trials[t].Report.Phases)
	}
	return out, nil
}

// PrintRecoverySweep renders a sweep for both Anubis schemes.
func PrintRecoverySweep(w io.Writer, rc RunConfig, trials int) error {
	fmt.Fprintln(w, "Recovery-time distribution (forked warm state; modeled at 100 ns/op)")
	fmt.Fprintf(w, "  %-10s %-12s %8s %12s %12s %12s %12s  %s\n",
		"scheme", "app", "trials", "min", "mean", "p95", "max", "dominant phase")
	for _, sc := range []struct {
		scheme memctrl.Scheme
		family sim.Family
	}{
		{memctrl.SchemeAGITPlus, sim.FamilyBonsai},
		{memctrl.SchemeASIT, sim.FamilySGX},
	} {
		res, err := RecoverySweep(RecoverySweepConfig{
			Run: rc, Scheme: sc.scheme, Family: sc.family, Trials: trials,
		})
		if err != nil {
			return err
		}
		min, mean, max := res.ModeledRecoveryNS()
		fmt.Fprintf(w, "  %-10s %-12s %8d %10dns %10dns %10dns %10dns  %s\n",
			sc.scheme, res.App, len(res.Trials), min, mean, res.RecoveryPercentileNS(95), max,
			dominantPhase(&res.PhaseTotals))
	}
	return nil
}

// dominantPhase names the phase carrying the largest share of the
// sweep's merged recovery time, with its percentage.
func dominantPhase(l *obs.RecLedger) string {
	total := l.Total()
	if total == 0 {
		return "-"
	}
	best := obs.RPImageLoad
	for _, p := range obs.RecPhases() {
		if l.Get(p) > l.Get(best) {
			best = p
		}
	}
	return fmt.Sprintf("%s %.0f%%", best, 100*float64(l.Get(best))/float64(total))
}
