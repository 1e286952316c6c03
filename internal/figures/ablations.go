package figures

import (
	"context"
	"fmt"
	"io"

	"anubis/internal/memctrl"
	"anubis/internal/nvm"
	"anubis/internal/parallel"
	"anubis/internal/recmodel"
	"anubis/internal/sim"
	"anubis/internal/trace"
)

// This file contains ablations of the design choices DESIGN.md calls
// out — experiments the paper motivates but does not plot:
//
//   - stop-loss limit sweep (the Osiris run-time/recovery-time knob),
//   - ECC-trial vs phase-bits counter recovery (the §2.4 alternatives),
//   - write endurance per scheme (the paper's lifetime argument:
//     "[strict persistence] causes at least an additional ten writes
//     per memory write operation, which can significantly reduce the
//     lifetime of NVMs", §6.2).

// StopLossRow is one point of the stop-loss sweep.
type StopLossRow struct {
	StopLoss       int     `json:"stop_loss"`
	Normalized     float64 `json:"normalized"`       // exec time vs write-back
	StopLossWrites uint64  `json:"stop_loss_writes"` // extra counter persists at run time
	RecoveryCrypto uint64  `json:"recovery_crypto"`  // decrypt+check trials during recovery
}

// AblationStopLoss sweeps the Osiris stop-loss limit on a write-heavy
// workload, exposing the run-time-cost vs recovery-trials trade-off.
// Each stop-loss point is one independent cell (baseline + Osiris run +
// reduced-scale crash/recovery) and the points run concurrently.
func AblationStopLoss(rc RunConfig) ([]StopLossRow, error) {
	prof, _ := trace.ByName("libquantum")
	limits := []int{1, 2, 4, 8, 16}
	return parallel.Map(rc.pool(), len(limits), func(_ context.Context, i int) (StopLossRow, error) {
		sl := limits[i]
		cfg := rc.config(memctrl.SchemeWriteBack)
		base, err := runWith(cfg, prof, rc)
		if err != nil {
			return StopLossRow{}, err
		}
		cfg = rc.config(memctrl.SchemeOsiris)
		cfg.StopLoss = sl
		res, err := runWith(cfg, prof, rc)
		if err != nil {
			return StopLossRow{}, err
		}
		// Measure recovery trials at a reduced scale.
		rep, err := miniRecovery(cfg, prof, rc)
		if err != nil {
			return StopLossRow{}, err
		}
		return StopLossRow{
			StopLoss:       sl,
			Normalized:     res.Normalized(base),
			StopLossWrites: res.Stats.StopLossWrites,
			RecoveryCrypto: rep.CryptoOps,
		}, nil
	})
}

// miniRecovery runs a reduced-scale workload on a fresh Bonsai
// controller, crashes it, and returns the recovery report. The warm-up,
// crash, and recovery are inherently sequential within one cell; the
// warm-up stream comes from the shared arena (scaled profiles have
// their own arena key, so all stop-loss/backend/triad points share one
// materialization).
func miniRecovery(cfg memctrl.Config, prof trace.Profile, rc RunConfig) (*memctrl.RecoveryReport, error) {
	mcfg := cfg
	mcfg.MemoryBytes = 16 << 20
	ctrl, err := memctrl.NewBonsai(mcfg)
	if err != nil {
		return nil, err
	}
	if _, err := sim.Run(ctrl, rc.sourceN(prof.Scaled(mcfg.MemoryBytes/64), 3000), 3000, nil); err != nil {
		return nil, err
	}
	ctrl.Crash()
	return ctrl.Recover()
}

func runWith(cfg memctrl.Config, prof trace.Profile, rc RunConfig) (sim.Result, error) {
	ctrl, err := memctrl.NewBonsai(cfg)
	if err != nil {
		return sim.Result{}, err
	}
	return sim.Run(ctrl, rc.source(prof), rc.Requests, nil)
}

// PrintAblationStopLoss renders the sweep.
func PrintAblationStopLoss(w io.Writer, rc RunConfig) error {
	rows, err := AblationStopLoss(rc)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation: Osiris stop-loss limit (libquantum)")
	fmt.Fprintf(w, "  %-10s %12s %16s %16s\n", "stop-loss", "normalized", "extra persists", "recovery trials")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10d %12.3f %16d %16d\n", r.StopLoss, r.Normalized, r.StopLossWrites, r.RecoveryCrypto)
	}
	return nil
}

// BackendRow compares the two counter-recovery backends.
type BackendRow struct {
	Backend        memctrl.CounterRecovery `json:"backend"`
	Normalized     float64                 `json:"normalized"`
	StopLossWrites uint64                  `json:"stop_loss_writes"`
	RecoveryOps    uint64                  `json:"recovery_ops"`
}

// AblationRecoveryBackend compares ECC-trial recovery (Osiris proper)
// against phase-bit recovery (§2.4's data-bus extension) under the
// AGIT-Plus scheme.
func AblationRecoveryBackend(rc RunConfig) ([]BackendRow, error) {
	prof, _ := trace.ByName("libquantum")
	base, err := runWith(rc.config(memctrl.SchemeWriteBack), prof, rc)
	if err != nil {
		return nil, err
	}
	backends := []memctrl.CounterRecovery{memctrl.RecoveryECC, memctrl.RecoveryPhase}
	return parallel.Map(rc.pool(), len(backends), func(_ context.Context, i int) (BackendRow, error) {
		backend := backends[i]
		cfg := rc.config(memctrl.SchemeAGITPlus)
		cfg.Recovery = backend
		res, err := runWith(cfg, prof, rc)
		if err != nil {
			return BackendRow{}, err
		}
		rep, err := miniRecovery(cfg, prof, rc)
		if err != nil {
			return BackendRow{}, err
		}
		return BackendRow{
			Backend:        backend,
			Normalized:     res.Normalized(base),
			StopLossWrites: res.Stats.StopLossWrites,
			RecoveryOps:    rep.FetchOps + rep.CryptoOps,
		}, nil
	})
}

// PrintAblationRecoveryBackend renders the comparison.
func PrintAblationRecoveryBackend(w io.Writer, rc RunConfig) error {
	rows, err := AblationRecoveryBackend(rc)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation: counter-recovery backend (AGIT-Plus, libquantum)")
	fmt.Fprintf(w, "  %-8s %12s %16s %14s\n", "backend", "normalized", "extra persists", "recovery ops")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8s %12.3f %16d %14d\n", r.Backend, r.Normalized, r.StopLossWrites, r.RecoveryOps)
	}
	return nil
}

// EnduranceRow is one scheme's write-endurance footprint.
type EnduranceRow struct {
	Scheme           memctrl.Scheme `json:"scheme"`
	Family           sim.Family     `json:"family"`
	WearLeveled      bool           `json:"wear_leveled"`
	WritesPerRequest float64        `json:"writes_per_request"` // NVM writes per CPU write request
	HottestWear      uint64         `json:"hottest_wear"`       // writes absorbed by the hottest block
	LifetimeFactor   float64        `json:"lifetime_factor"`    // write-back hottest wear / this hottest wear
}

// AblationEndurance measures NVM write amplification and hot-spot wear
// per scheme on a write-heavy workload: the paper's lifetime argument
// quantified. LifetimeFactor < 1 means the scheme wears the device out
// faster than plain write-back.
func AblationEndurance(rc RunConfig) ([]EnduranceRow, error) {
	prof, _ := trace.ByName("libquantum")
	type entry struct {
		s    memctrl.Scheme
		f    sim.Family
		wear int // Start-Gap period; 0 = no leveling
	}
	entries := []entry{
		{memctrl.SchemeWriteBack, sim.FamilyBonsai, 0},
		{memctrl.SchemeOsiris, sim.FamilyBonsai, 0},
		{memctrl.SchemeAGITRead, sim.FamilyBonsai, 0},
		{memctrl.SchemeAGITPlus, sim.FamilyBonsai, 0},
		{memctrl.SchemeAGITPlus, sim.FamilyBonsai, 64},
		{memctrl.SchemeStrict, sim.FamilyBonsai, 0},
		{memctrl.SchemeASIT, sim.FamilySGX, 0},
	}
	// Every entry's simulation is independent; only the lifetime factor
	// references entry 0's wear, so the runs fan out and the factors are
	// computed in a sequential reduction afterwards.
	type measured struct {
		res  sim.Result
		wear uint64
	}
	results, err := parallel.Map(rc.pool(), len(entries), func(_ context.Context, i int) (measured, error) {
		e := entries[i]
		cfg := rc.config(e.s)
		cfg.WearPeriod = e.wear
		ctrl, err := sim.NewController(e.f, cfg)
		if err != nil {
			return measured{}, err
		}
		res, err := sim.Run(ctrl, rc.source(prof), rc.Requests, nil)
		if err != nil {
			return measured{}, err
		}
		_, _, wear := ctrl.Device().MaxWearAll()
		return measured{res: res, wear: wear}, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []EnduranceRow
	baseWear := results[0].wear
	for i, e := range entries {
		m := results[i]
		lf := 0.0
		if m.wear > 0 {
			lf = float64(baseWear) / float64(m.wear)
		}
		rows = append(rows, EnduranceRow{
			Scheme:           e.s,
			Family:           e.f,
			WearLeveled:      e.wear > 0,
			WritesPerRequest: m.res.WritesPerRequest(),
			HottestWear:      m.wear,
			LifetimeFactor:   lf,
		})
	}
	return rows, nil
}

// PrintAblationEndurance renders the endurance table.
func PrintAblationEndurance(w io.Writer, rc RunConfig) error {
	rows, err := AblationEndurance(rc)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation: NVM write endurance (libquantum; lifetime relative to write-back)")
	fmt.Fprintf(w, "  %-15s %-8s %14s %14s %12s\n", "scheme", "tree", "writes/req", "hottest wear", "lifetime ×")
	for _, r := range rows {
		name := r.Scheme.String()
		if r.WearLeveled {
			name += "+wl"
		}
		fmt.Fprintf(w, "  %-15s %-8s %14.2f %14d %12.3f\n",
			name, r.Family, r.WritesPerRequest, r.HottestWear, r.LifetimeFactor)
	}
	return nil
}

// wearRegionName is kept for test introspection.
func wearRegionName(r nvm.Region) string { return r.String() }

// TriadRow is one point of the Triad-NVM resilience sweep.
type TriadRow struct {
	Levels       int     `json:"levels"`
	Normalized   float64 `json:"normalized"`     // exec time vs write-back
	Recovery8TBS float64 `json:"recovery_8tb_s"` // analytic recovery seconds at 8 TB
	MeasuredOps  uint64  `json:"measured_ops"`   // executed recovery ops at test scale
}

// AblationTriad sweeps the Triad-NVM persisted-levels knob, exposing
// the resilience/recovery/performance trade-off the paper contrasts
// Anubis against (§7): each persisted level costs run-time writes and
// divides the remaining rebuild work by the tree arity — but recovery
// stays memory-bound at every setting.
func AblationTriad(rc RunConfig) ([]TriadRow, error) {
	prof, _ := trace.ByName("libquantum")
	base, err := runWith(rc.config(memctrl.SchemeWriteBack), prof, rc)
	if err != nil {
		return nil, err
	}
	allLevels := []int{0, 1, 2, 3}
	return parallel.Map(rc.pool(), len(allLevels), func(_ context.Context, i int) (TriadRow, error) {
		levels := allLevels[i]
		cfg := rc.config(memctrl.SchemeTriad)
		cfg.TriadLevels = levels
		res, err := runWith(cfg, prof, rc)
		if err != nil {
			return TriadRow{}, err
		}
		rep, err := miniRecovery(cfg, prof, rc)
		if err != nil {
			return TriadRow{}, err
		}
		return TriadRow{
			Levels:       levels,
			Normalized:   res.Normalized(base),
			Recovery8TBS: recmodel.Seconds(recmodel.TriadNS(8<<40, levels)),
			MeasuredOps:  rep.FetchOps + rep.CryptoOps,
		}, nil
	})
}

// PrintAblationTriad renders the sweep, with the Anubis row for contrast.
func PrintAblationTriad(w io.Writer, rc RunConfig) error {
	rows, err := AblationTriad(rc)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation: Triad-NVM persisted levels (libquantum; recovery at 8 TB, analytic)")
	fmt.Fprintf(w, "  %-10s %12s %16s %14s\n", "levels", "normalized", "recovery@8TB", "measured ops")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10d %12.3f %16s %14d\n",
			r.Levels, r.Normalized, recmodel.FormatDuration(uint64(r.Recovery8TBS*1e9)), r.MeasuredOps)
	}
	fmt.Fprintf(w, "  %-10s %12s %16s\n", "anubis", "1.036 (avg)",
		recmodel.FormatDuration(recmodel.AGITNS(256<<10, 256<<10)))
	return nil
}
