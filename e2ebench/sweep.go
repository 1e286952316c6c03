package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"slices"
	"time"

	"anubis/internal/figures"
	"anubis/internal/memctrl"
	"anubis/internal/obs"
	"anubis/internal/sim"
	"anubis/internal/trace"
)

// sweepSpec sizes the Figure 10 + Figure 11 sweep.
type sweepSpec struct {
	requests int      // requests per (app, scheme) cell
	apps     []string // nil = all 11 SPEC2006 profiles
}

// sweepMemBytes is the paper-scale simulated capacity of every cell.
const sweepMemBytes = 256 << 20

// sweeper runs the Figure 10 + Figure 11 sweep one app per round: a
// round simulates the app's 5 Fig 10 and 4 Fig 11 cells, and a pass
// is complete once every app has had its round.
type sweeper struct {
	b    *bench
	rc   figures.RunConfig
	apps []string

	next     int // index into apps of the next round
	pass     int // 1-based number of the running pass
	rows     []string
	agit     []float64 // normalized AGIT-Plus time per app of the running pass
	asit     []float64
	first    sweepOut
	requests float64
	host     time.Duration
	rounds   int

	w   *cellWatch // traced runs only
	mem memDelta   // traced runs only
}

// sweepOut is what one complete pass produces.
type sweepOut struct {
	agitPlus, asit float64 // mean normalized execution time over the apps
	digest         string  // every normalized value of both figures
}

// setupSweep builds the sweep's inputs: one trace arena per profile at
// the run's seed.
func setupSweep(b *bench, spec sweepSpec) (*sweeper, error) {
	rc := figures.RunConfig{
		MemoryBytes: sweepMemBytes,
		Requests:    spec.requests,
		Seed:        b.opt.seed,
		Parallel:    1,
		Arenas:      trace.NewArenaCache(),
	}
	t0 := time.Now()
	var apps []string
	for _, p := range trace.SPEC2006() {
		if spec.apps != nil && !slices.Contains(spec.apps, p.Name) {
			continue
		}
		rc.Arenas.Get(p, rc.Seed, rc.Requests)
		apps = append(apps, p.Name)
	}
	if len(apps) == 0 {
		return nil, fmt.Errorf("sweep: no profiles selected")
	}
	b.arenaBuildMS = append(b.arenaBuildMS, float64(time.Since(t0).Nanoseconds())/1e6)
	return &sweeper{b: b, rc: rc, apps: apps, pass: 1}, nil
}

// warmUp runs one short Figure 10 app on its own arenas, so the timed
// rounds start with the code paths and heap already warm.
func (s *sweeper) warmUp() error {
	warm := s.rc
	warm.Apps, warm.Requests, warm.Arenas = []string{"mcf"}, 2000, trace.NewArenaCache()
	if _, _, err := figures.Fig10(warm); err != nil {
		return fmt.Errorf("sweep warm-up: %w", err)
	}
	if s.b.tr != nil {
		s.w = &cellWatch{b: s.b, nsByFam: map[sim.Family][2]float64{}}
		s.rc.OnCell = s.w.onCell
	}
	return nil
}

// round simulates the next app's cells of both figures. ctx carries
// the phase's pprof label, which the figures' own cell labels extend.
func (s *sweeper) round(ctx context.Context) error {
	app := s.apps[s.next]
	rc := s.rc
	rc.Apps = []string{app}
	var (
		rows10, rows11 []figures.PerfRow
		avg10, avg11   map[memctrl.Scheme]float64
		err            error
	)
	rid := s.b.tr.begin("figures.round/"+app, 0, int64(s.pass))
	if s.w != nil {
		s.w.last, s.w.parent = time.Now(), rid
	}
	rc.Ctx = ctx
	if s.w != nil {
		s.mem.begin()
	}
	t0 := time.Now()
	if rows10, avg10, err = figures.Fig10(rc); err == nil {
		rows11, avg11, err = figures.Fig11(rc)
	}
	s.host += time.Since(t0)
	if s.w != nil {
		s.mem.end()
	}
	s.b.tr.end(rid)
	s.b.op(err)
	if err != nil {
		return fmt.Errorf("sweep %s: %w", app, err)
	}
	s.rounds++
	s.requests += float64((len(figures.Fig10Schemes) + len(figures.Fig11Schemes)) * rc.Requests)
	s.rows = append(s.rows, rowText(rows10[0], figures.Fig10Schemes)+rowText(rows11[0], figures.Fig11Schemes))
	s.agit = append(s.agit, avg10[memctrl.SchemeAGITPlus])
	s.asit = append(s.asit, avg11[memctrl.SchemeASIT])
	s.next++
	if s.next == len(s.apps) {
		s.endPass()
	}
	return nil
}

func rowText(r figures.PerfRow, schemes []memctrl.Scheme) string {
	out := r.App
	for _, sc := range schemes {
		out += fmt.Sprintf(" %s=%.17g", sc, r.Norm[sc])
	}
	return out + "\n"
}

// endPass checks a complete pass: the first against the golden digest
// (at goldenSeed), every later one against the first.
func (s *sweeper) endPass() {
	h := fnv.New64a()
	for _, r := range s.rows {
		h.Write([]byte(r))
	}
	out := sweepOut{agitPlus: mean(s.agit), asit: mean(s.asit), digest: fmt.Sprintf("%016x", h.Sum64())}
	if s.pass == 1 {
		s.first = out
		s.b.op(checkGolden(s.b.opt.seed, s.rc.Requests, out))
	} else if out != s.first {
		s.b.op(fmt.Errorf("sweep pass %d differs from pass 1: %+v vs %+v", s.pass, out, s.first))
	} else {
		s.b.op(nil)
	}
	s.pass++
	s.next, s.rows, s.agit, s.asit = 0, nil, nil, nil
}

// finish reports sim_mreq_per_s and the two overhead averages.
func (s *sweeper) finish() error {
	if s.pass == 1 {
		return fmt.Errorf("sweep: %d rounds do not complete a pass of %d apps", s.rounds, len(s.apps))
	}
	b := s.b
	b.setE2E("sim_mreq_per_s", "Mreq/s", s.requests/s.host.Seconds()/1e6, s.rounds)
	b.setE2E("agit_plus_overhead_pct", "%", (s.first.agitPlus-1)*100, 0)
	b.setE2E("asit_overhead_pct", "%", (s.first.asit-1)*100, 0)
	b.meta["sweep_digest"] = s.first.digest
	b.meta["sweep_passes"] = s.pass - 1
	if s.w == nil {
		return nil
	}
	w := s.w
	b.setLayer("figures.cell_ms_p50", "ms", median(w.cellMS))
	b.setLayer("figures.cell_ms_max", "ms", quantile(w.cellMS, 1))
	for _, f := range []sim.Family{sim.FamilyBonsai, sim.FamilySGX} {
		acc := w.nsByFam[f]
		b.setLayer("sim."+f.String()+"_ns_per_req", "ns", acc[0]/acc[1])
	}
	b.setLayer("runtime.alloc_bytes_per_req", "B", float64(s.mem.alloc)/s.requests)
	b.setLayer("runtime.gc_cycles", "count", float64(s.mem.gcs))
	simulatedLayers(b, w.stats, w.reqs)
	return nil
}

// cellWatch times sweep cells from outside: cells run one at a time
// (Parallel: 1), so a cell's span runs from the previous OnCell
// callback (or the round start) to its own.
type cellWatch struct {
	b       *bench
	last    time.Time
	parent  int // span id of the running round
	cellMS  []float64
	nsByFam map[sim.Family][2]float64 // host ns, simulated requests
	stats   []memctrl.RunStats
	reqs    int
}

func (w *cellWatch) onCell(res sim.Result) {
	now := time.Now()
	d := now.Sub(w.last)
	w.b.tr.record(fmt.Sprintf("figures.cell/%s/%s/%s", res.Family, res.Scheme, res.Workload), w.parent, 0, w.last, now)
	w.last = now
	w.cellMS = append(w.cellMS, float64(d.Nanoseconds())/1e6)
	acc := w.nsByFam[res.Family]
	acc[0] += float64(d.Nanoseconds())
	acc[1] += float64(res.Requests)
	w.nsByFam[res.Family] = acc
	w.stats = append(w.stats, res.Stats)
	w.reqs += res.Requests
}

// simulatedLayers reports the summed simulated statistics of every
// cell run. They are exact at a given seed and round count: a
// host-only change that moves them is a bug.
func simulatedLayers(b *bench, stats []memctrl.RunStats, reqs int) {
	var ctrH, ctrM, treeH, treeM, nvmW, shadow uint64
	var led obs.Ledger
	for _, s := range stats {
		ctrH += s.CounterCache.Hits
		ctrM += s.CounterCache.Misses
		treeH += s.TreeCache.Hits
		treeM += s.TreeCache.Misses
		nvmW += s.NVM.Writes
		shadow += s.ShadowWrites
		led.Merge(&s.Attribution)
	}
	b.setLayer("cache.counter_hit_pct", "%", pct(ctrH, ctrH+ctrM))
	b.setLayer("cache.tree_hit_pct", "%", pct(treeH, treeH+treeM))
	b.setLayer("nvm.writes_per_req", "count", float64(nvmW)/float64(reqs))
	b.setLayer("memctrl.shadow_writes_per_kreq", "count", float64(shadow)*1000/float64(reqs))
	for _, c := range obs.Comps() {
		b.setLayer("obs.stall_"+c.String()+"_pct", "%", pct(led.Get(c), led.Total()))
	}
}

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) * 100 / float64(whole)
}

// checkGolden compares a pass at goldenSeed against the digest kept in
// golden.go for its scale; other seeds are checked pass against pass.
func checkGolden(seed int64, requests int, out sweepOut) error {
	if seed != goldenSeed {
		return nil
	}
	want, ok := goldenSweep[requests]
	if !ok {
		return nil
	}
	if out.digest != want {
		return fmt.Errorf("sweep at seed %d, %d requests: digest %s, golden %s (agit-plus %.6f, asit %.6f)",
			seed, requests, out.digest, want, out.agitPlus, out.asit)
	}
	return nil
}
