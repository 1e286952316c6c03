// Command e2ebench is the repository's end-to-end benchmark.
//
// One invocation runs one workload (figsweep, serve_kv or
// crash_recover), checks that every output is correct, and prints as
// its last stdout line one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1
// the same phases run again with spans recorded around the benchmark's
// own calls into each layer plus a CPU profile, and the metrics are the
// per-layer ones. The line before it is a JSON object of run metadata.
// Inputs come only from -seed. See NOTES.md for the design.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for state dirs, spans and the profile
	// short shrinks every phase to a few hundred milliseconds, for the
	// package's own tests. Metric names are unchanged.
	short bool
	// fault corrupts one piece of state mid-run ("data" or "counter")
	// so the tests can prove that the correctness checks fire.
	fault string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench collects one run's metrics, correctness checks and metadata.
type bench struct {
	opt options
	tr  *tracer // nil when -trace 0

	mu      sync.Mutex
	e2e     map[string]metric
	layer   map[string]metric
	samples map[string]int
	sheds   map[string]int64
	meta    map[string]any
	// arenaBuildMS holds one trace-arena build time per set-up.
	arenaBuildMS []float64
	attempted    int64
	failed       int64
	logged       int
}

func newBench(opt options, start time.Time) *bench {
	b := &bench{
		opt: opt,
		e2e: map[string]metric{}, layer: map[string]metric{},
		samples: map[string]int{}, sheds: map[string]int64{}, meta: map[string]any{},
	}
	if opt.trace {
		b.tr = newTracer(start)
	}
	return b
}

// op records one attempted operation; a non-nil err counts it failed.
func (b *bench) op(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if b.logged < 20 {
			b.logged++
			fmt.Fprintln(os.Stderr, "e2ebench: check failed:", err)
		}
	}
}

// countShed records one admission-control refusal by reason.
func (b *bench) countShed(reason string) {
	b.mu.Lock()
	b.sheds[reason]++
	b.mu.Unlock()
}

// shedCounts snapshots the shed counts by reason.
func (b *bench) shedCounts() map[string]int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]int64, len(b.sheds))
	for k, v := range b.sheds {
		out[k] = v
	}
	return out
}

// addCounts merges counts gathered off the main goroutine.
func (b *bench) addCounts(attempted, failed int64, firstErr error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted += attempted
	b.failed += failed
	if firstErr != nil && b.logged < 20 {
		b.logged++
		fmt.Fprintln(os.Stderr, "e2ebench: check failed:", firstErr)
	}
}

// setE2E records an end-to-end metric measured from n samples (0 for
// values that are not timings).
func (b *bench) setE2E(name, unit string, v float64, n int) {
	b.e2e[name] = metric{Value: v, Unit: unit}
	if n > 0 {
		b.samples[name] = n
	}
}

// setLayer records a per-layer metric (traced runs only).
func (b *bench) setLayer(name, unit string, v float64) {
	b.layer[name] = metric{Value: v, Unit: unit}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	start := time.Now()
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var traceN int
	fs.StringVar(&opt.workload, "workload", "", "figsweep, serve_kv or crash_recover")
	fs.Int64Var(&opt.seed, "seed", 99, "seed every input is generated from")
	fs.Float64Var(&opt.seconds, "seconds", 25, "seconds serve_kv's timed rounds fill; figsweep and crash_recover run fixed work")
	fs.IntVar(&traceN, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.StringVar(&opt.out, "out", ".bench_build", "directory for state, spans and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = traceN != 0
	res, err := runWorkload(opt, start, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// workloads are the benchmark's workloads; planFor sizes each one.
var workloads = []string{"figsweep", "serve_kv", "crash_recover"}

// runWorkload runs one workload and returns its result line. The run
// metadata is printed to meta first.
func runWorkload(opt options, start time.Time, meta io.Writer) (result, error) {
	if !slices.Contains(workloads, opt.workload) {
		return result{}, fmt.Errorf("unknown workload %q (want figsweep, serve_kv or crash_recover)", opt.workload)
	}
	if opt.seconds <= 0 {
		return result{}, fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return result{}, err
	}
	if !opt.trace {
		b := newBench(opt, start)
		if err := runPlan(b); err != nil {
			return result{}, err
		}
		b.e2e["peak_rss_mb"] = metric{Value: peakRSSMB(), Unit: "MB"}
		b.writeMeta(meta)
		return b.result(b.e2e), nil
	}

	// A traced run first repeats the untraced run in the same process;
	// the tracing overhead is the traced pass's end-to-end metrics minus
	// that pass's.
	plain := opt
	plain.trace = false
	base := newBench(plain, start)
	if err := runPlan(base); err != nil {
		return result{}, err
	}
	runtime.GC()
	b := newBench(opt, time.Now())
	if err := b.tr.startProfile(); err != nil {
		return result{}, err
	}
	if err := runPlan(b); err != nil {
		b.tr.stopProfile()
		return result{}, err
	}
	if err := b.finishTrace(); err != nil {
		return result{}, err
	}
	for _, name := range hostTimed {
		traced, untraced := b.e2e[name], base.e2e[name]
		b.setLayer("tracing."+name+"_delta", traced.Unit, traced.Value-untraced.Value)
	}
	b.meta["untraced_metrics"] = base.e2e
	b.meta["traced_metrics"] = b.e2e
	b.attempted += base.attempted
	b.failed += base.failed
	b.writeMeta(meta)
	return b.result(b.layer), nil
}

// hostTimed are the end-to-end metrics measured in host time; the
// others are simulated or memory sizes and cannot move under tracing.
var hostTimed = []string{
	"setup_s", "sim_mreq_per_s", "ops_per_s", "p50_us",
	"recover_osiris_ms", "recover_agit_plus_ms", "recover_asit_ms", "restart_s",
}

func (b *bench) result(metrics map[string]metric) result {
	return result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	}
}

// writeMeta prints the run's provenance as one JSON line.
func (b *bench) writeMeta(w io.Writer) {
	meta := map[string]any{
		"workload":   b.opt.workload,
		"seed":       b.opt.seed,
		"seconds":    b.opt.seconds,
		"trace":      b.opt.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit(),
		"samples":    b.samples,
		"sheds":      b.sheds,
	}
	for k, v := range b.meta {
		meta[k] = v
	}
	raw, _ := json.Marshal(map[string]any{"meta": meta})
	fmt.Fprintln(w, string(raw))
}

// commit returns the VCS revision the binary was built from, or
// "unknown" when the source tree was not a git checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// stateDir returns a fresh, private directory under -out.
func (b *bench) stateDir(name string) (string, error) {
	dir := filepath.Join(b.opt.out, fmt.Sprintf("state-%d-%s", os.Getpid(), name))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// --- statistics ------------------------------------------------------------

// quantile returns the q-quantile (0..1) of xs by nearest rank; xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// memDelta sums the heap allocation and GC activity of one phase's
// slices. ReadMemStats stops the world, so it runs only in traced runs
// and outside the timed region.
type memDelta struct {
	start               runtime.MemStats
	alloc, gcs, pauseNS uint64
}

func (m *memDelta) begin() { runtime.ReadMemStats(&m.start) }

func (m *memDelta) end() {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	m.alloc += now.TotalAlloc - m.start.TotalAlloc
	m.gcs += uint64(now.NumGC - m.start.NumGC)
	m.pauseNS += now.PauseTotalNs - m.start.PauseTotalNs
}
