package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"sort"
	"time"

	"anubis"
)

// --- deterministic inputs ------------------------------------------------------

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// payload fills dst with the content of version ver of block in the
// address space tagged tag. Version 0 is never written: it reads as
// zeros.
func payload(dst *[anubis.BlockSize]byte, seed int64, tag, block uint64, ver uint32) {
	if ver == 0 {
		*dst = [anubis.BlockSize]byte{}
		return
	}
	x := mix64(uint64(seed) ^ tag<<52 ^ block<<20 ^ uint64(ver))
	for i := 0; i < anubis.BlockSize; i += 8 {
		x = mix64(x)
		binary.LittleEndian.PutUint64(dst[i:], x)
	}
}

// rngFor returns the input stream of one (seed, purpose, index) triple.
func rngFor(seed int64, purpose string, idx int) *rand.Rand {
	h := uint64(seed)
	for _, c := range purpose {
		h = mix64(h ^ uint64(c))
	}
	return rand.New(rand.NewSource(int64(mix64(h ^ uint64(idx)))))
}

// --- library recovery trials ----------------------------------------------------

// recMemBytes is the protected capacity of each recovery system.
const recMemBytes = 256 << 20

// recScheme is one scheme the recovery trials measure; Osiris is the
// memory-proportional baseline.
type recScheme struct {
	name   string
	scheme anubis.Scheme
}

var recSchemes = []recScheme{
	{"osiris", anubis.Osiris},
	{"agit_plus", anubis.AGITPlus},
	{"asit", anubis.ASIT},
}

// recSpec sizes the recovery trials.
type recSpec struct {
	fill     int // warm-fill writes per system
	perRound int // crash trials per scheme per round
	window   int // maximum writes between fork and crash
	audit    int // audit every audit-th trial
}

// warmSystem is one warmed-up system plus the versions its fill left.
type warmSystem struct {
	recScheme
	tag    uint64
	sys    *anubis.System
	ver    map[uint64]uint32
	blocks []uint64 // written blocks, in first-write order
}

// recoverer runs crash trials against one warm system per scheme.
type recoverer struct {
	b       *bench
	spec    recSpec
	systems []*warmSystem
	trials  int // trials run per scheme so far

	hostMS  map[string][]float64
	modeled map[string]float64 // summed modeled ns
	fetch   map[string]uint64
	crypto  map[string]uint64
	phases  map[string]map[string]uint64
}

// pickBlock draws a write target: half from a hot 4 MiB region, half
// uniform over the whole memory, so the fill dirties many metadata
// blocks and the windows revisit some of them.
func pickBlock(r *rand.Rand, nBlocks uint64) uint64 {
	if r.Intn(2) == 0 {
		return uint64(r.Int63n(1 << 16))
	}
	return uint64(r.Int63n(int64(nBlocks)))
}

// setupRecovery warms one system per scheme with a write-heavy fill.
func setupRecovery(b *bench, spec recSpec) (*recoverer, error) {
	rc := &recoverer{
		b: b, spec: spec,
		hostMS: map[string][]float64{}, modeled: map[string]float64{},
		fetch: map[string]uint64{}, crypto: map[string]uint64{}, phases: map[string]map[string]uint64{},
	}
	for i, rs := range recSchemes {
		sys, err := anubis.New(anubis.Config{Scheme: rs.scheme, MemoryBytes: recMemBytes})
		if err != nil {
			return nil, fmt.Errorf("recovery %s: %w", rs.name, err)
		}
		ws := &warmSystem{recScheme: rs, tag: uint64(i + 1), sys: sys, ver: map[uint64]uint32{}}
		r := rngFor(b.opt.seed, "fill", i)
		var data [anubis.BlockSize]byte
		for n := 0; n < spec.fill; n++ {
			blk := pickBlock(r, sys.NumBlocks())
			v := ws.ver[blk] + 1
			if v == 1 {
				ws.blocks = append(ws.blocks, blk)
			}
			ws.ver[blk] = v
			payload(&data, b.opt.seed, ws.tag, blk, v)
			if err := sys.WriteBlock(blk, data[:]); err != nil {
				return nil, fmt.Errorf("recovery %s fill: %w", rs.name, err)
			}
		}
		rc.systems = append(rc.systems, ws)
		rc.phases[rs.name] = map[string]uint64{}
	}
	return rc, nil
}

// round runs spec.perRound trials per scheme, alternating the schemes
// so host noise spreads evenly over them.
func (rc *recoverer) round(ctx context.Context) {
	for i := 0; i < rc.spec.perRound; i++ {
		t := rc.trials
		rc.trials++
		for _, ws := range rc.systems {
			host, rep, err := rc.trial(ctx, ws, t)
			rc.b.op(err)
			if err != nil {
				continue
			}
			rc.hostMS[ws.name] = append(rc.hostMS[ws.name], float64(host.Nanoseconds())/1e6)
			rc.modeled[ws.name] += float64(rep.ModeledNS)
			rc.fetch[ws.name] += rep.FetchOps
			rc.crypto[ws.name] += rep.CryptoOps
			for p, ns := range rep.Phases {
				rc.phases[ws.name][p] += ns
			}
		}
	}
}

// trial forks the warm system, writes a window, crashes, recovers
// (timed), and verifies what the window and the fill acknowledged.
// The Recover call runs under the pprof label phase=recover; ctx
// carries the slice's labels, which are restored afterwards.
func (rc *recoverer) trial(ctx context.Context, ws *warmSystem, t int) (time.Duration, anubis.RecoveryReport, error) {
	b := rc.b
	r := rngFor(b.opt.seed, "window/"+ws.name, t)
	tid := b.tr.begin("trial/"+ws.name, 0, int64(t))
	defer b.tr.end(tid)
	var child *anubis.System
	b.tr.timed("anubis.fork", tid, int64(t), func() { child = ws.sys.Fork() })
	window := map[uint64]uint32{}
	var data [anubis.BlockSize]byte
	var err error
	b.tr.timed("anubis.window", tid, int64(t), func() {
		n := 1 + r.Intn(rc.spec.window)
		for i := 0; i < n && err == nil; i++ {
			blk := pickBlock(r, child.NumBlocks())
			v, ok := window[blk]
			if !ok {
				v = ws.ver[blk]
			}
			v++
			window[blk] = v
			payload(&data, b.opt.seed, ws.tag, blk, v)
			err = child.WriteBlock(blk, data[:])
		}
	})
	if err != nil {
		return 0, anubis.RecoveryReport{}, fmt.Errorf("%s trial %d window: %w", ws.name, t, err)
	}
	b.tr.timed("anubis.crash", tid, int64(t), child.Crash)
	if t == 0 && b.opt.fault == "counter" && ws.name == "agit_plus" {
		// Corrupt the counter block of the lowest block the window
		// acknowledged.
		child.TamperCounter(sortedKeys(window)[0]/child.CountersPerBlock(), 9, 0x5a)
	}
	var rep anubis.RecoveryReport
	host := b.tr.timed("anubis.recover", tid, int64(t), func() {
		pprof.Do(ctx, pprof.Labels("phase", "recover"), func(context.Context) {
			rep, err = child.Recover()
		})
	})
	if err != nil {
		return host, rep, fmt.Errorf("%s trial %d recover: %w", ws.name, t, err)
	}
	var sum uint64
	for _, ns := range rep.Phases {
		sum += ns
	}
	if sum != rep.ModeledNS {
		return host, rep, fmt.Errorf("%s trial %d: phases sum to %d ns, modeled %d ns", ws.name, t, sum, rep.ModeledNS)
	}
	if t == 0 && b.opt.fault == "data" && ws.name == "agit_plus" {
		child.TamperData(sortedKeys(window)[0], 5, 0x81)
	}
	b.tr.timed("anubis.verify", tid, int64(t), func() { err = verifyTrial(b, ws, child, window, r) })
	if err != nil {
		return host, rep, fmt.Errorf("%s trial %d: %w", ws.name, t, err)
	}
	if rc.spec.audit > 0 && t%rc.spec.audit == 0 {
		var a anubis.AuditReport
		b.tr.timed("anubis.audit", tid, int64(t), func() { a, err = child.Audit() })
		if err == nil && !a.OK() {
			err = fmt.Errorf("%v", a.Violations)
		}
		if err != nil {
			return host, rep, fmt.Errorf("%s trial %d audit: %w", ws.name, t, err)
		}
	}
	return host, rep, nil
}

func sortedKeys(m map[uint64]uint32) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// verifyTrial reads back every block the window acknowledged plus 16
// blocks of the fill.
func verifyTrial(b *bench, ws *warmSystem, sys *anubis.System, window map[uint64]uint32, r *rand.Rand) error {
	blocks := sortedKeys(window)
	for i := 0; i < 16; i++ {
		blocks = append(blocks, ws.blocks[r.Intn(len(ws.blocks))])
	}
	var got, want [anubis.BlockSize]byte
	for _, blk := range blocks {
		v, ok := window[blk]
		if !ok {
			v = ws.ver[blk]
		}
		payload(&want, b.opt.seed, ws.tag, blk, v)
		if err := sys.ReadBlockInto(blk, &got); err != nil {
			return fmt.Errorf("read block %d: %w", blk, err)
		}
		if got != want {
			return fmt.Errorf("block %d: read-back differs from acknowledged version %d", blk, v)
		}
	}
	return nil
}

// finish reports the median host time of one Recover per scheme and
// the mean modeled recovery time.
func (rc *recoverer) finish() error {
	b := rc.b
	for _, ws := range rc.systems {
		host := rc.hostMS[ws.name]
		n := len(host)
		if n == 0 {
			return fmt.Errorf("recovery %s: every trial failed", ws.name)
		}
		hostMean := mean(host)
		b.setE2E("recover_"+ws.name+"_ms", "ms", median(host), n)
		if ws.name != "osiris" {
			b.setE2E("modeled_recovery_"+ws.name+"_us", "us", rc.modeled[ws.name]/float64(n)/1e3, 0)
		}
		if b.tr == nil {
			continue
		}
		ops := float64(rc.fetch[ws.name]+rc.crypto[ws.name]) / float64(n)
		b.setLayer("memctrl.recover_host_ns_per_op."+ws.name, "ns", hostMean*1e6/ops)
		b.setLayer("recovery."+ws.name+".fetch_ops", "count", float64(rc.fetch[ws.name])/float64(n))
		b.setLayer("recovery."+ws.name+".crypto_ops", "count", float64(rc.crypto[ws.name])/float64(n))
		for _, p := range recPhaseMetrics[ws.name] {
			b.setLayer("recovery."+ws.name+"."+p+"_us", "us", float64(rc.phases[ws.name][p])/float64(n)/1e3)
		}
	}
	return nil
}

// recPhaseMetrics lists, per scheme, the recovery phases that take
// modeled time without the epoch pipeline (the benchmark sets no engine
// knob, so the journal passes never run).
var recPhaseMetrics = map[string][]string{
	"osiris":    {"counter_osiris_scan", "merkle_rebuild", "ecc_verify"},
	"agit_plus": {"shadow_table_replay", "merkle_rebuild", "ecc_verify", "root_anchor"},
	"asit":      {"shadow_table_replay", "merkle_rebuild", "ecc_verify"},
}
