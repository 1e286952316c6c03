package main

import (
	"bytes"
	"fmt"
	"time"

	"anubis"
	"anubis/internal/serve"
)

// cycleSpec sizes the serve power cycles.
type cycleSpec struct {
	tenants int // tenants of cycleTenantBytes
	keys    int // prefilled blocks per tenant
	writes  int // writes per tenant before each cycle
	cycles  int // power cycles per run, spread evenly over its rounds
	rounds  int
}

const cycleTenantBytes = 16 << 20

// cycler is a live server plus the client's view of its contents; each
// round it may power-cycle the server through a state directory.
type cycler struct {
	b    *bench
	spec cycleSpec
	srv  *serve.Server
	ids  []string
	cfg  []serve.TenantConfig
	ver  [][]uint32 // tenant -> key -> last acknowledged version
	dir  string

	rounds, cycles           int
	restart, shutdown, loads []float64
}

func cycleServeConfig() serve.Config {
	return serve.Config{MaxBlocksPerTenant: cycleTenantBytes / anubis.BlockSize}
}

func cycleTag(i int) uint64 { return uint64(0x100 + i) }

// tenantScheme alternates the two Anubis schemes across tenants.
func tenantScheme(i int) string {
	if i%2 == 0 {
		return anubis.AGITPlus.String()
	}
	return anubis.ASIT.String()
}

func setupCycles(b *bench, spec cycleSpec) (*cycler, error) {
	cs := &cycler{b: b, spec: spec, srv: serve.New(cycleServeConfig())}
	for i := 0; i < spec.tenants; i++ {
		id := fmt.Sprintf("p%d", i)
		tc := serve.TenantConfig{Scheme: tenantScheme(i), MemoryBytes: cycleTenantBytes}
		if err := cs.srv.CreateTenant(id, tc); err != nil {
			return nil, err
		}
		cs.ids, cs.cfg = append(cs.ids, id), append(cs.cfg, tc)
		cs.ver = append(cs.ver, make([]uint32, spec.keys))
		if err := prefill(b, cs.srv, id, cycleTag(i), cs.ver[i]); err != nil {
			return nil, err
		}
	}
	return cs, nil
}

// prefill writes version 1 of every key, in 64-block batches.
func prefill(b *bench, srv *serve.Server, id string, tag uint64, ver []uint32) error {
	batch := make([]anubis.BlockWrite, 0, 64)
	flush := func() error {
		err := retrySheds(b, "prefill", func() error { return srv.WriteBlocks(id, batch) })
		batch = batch[:0]
		if err != nil {
			return fmt.Errorf("prefill %s: %w", id, err)
		}
		return nil
	}
	for k := range ver {
		ver[k] = 1
		w := anubis.BlockWrite{Block: uint64(k)}
		payload(&w.Data, b.opt.seed, tag, uint64(k), 1)
		batch = append(batch, w)
		if len(batch) == cap(batch) {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if len(batch) > 0 {
		return flush()
	}
	return nil
}

// round runs the power cycles due by the end of this round, so that
// spec.cycles cycles spread evenly over spec.rounds rounds.
func (cs *cycler) round() error {
	cs.rounds++
	for cs.cycles < cs.rounds*cs.spec.cycles/cs.spec.rounds {
		if err := cs.cycle(); err != nil {
			return err
		}
	}
	return nil
}

// cycle power-cycles the server once. Before the (untimed) cycle every
// tenant takes fresh writes so its metadata is dirty; after it every
// tenant must audit clean (untimed).
func (cs *cycler) cycle() error {
	b, c := cs.b, cs.cycles
	cs.cycles++
	if cs.dir == "" {
		dir, err := b.stateDir("cycles")
		if err != nil {
			return err
		}
		cs.dir = dir
	}
	var data [anubis.BlockSize]byte
	for i, id := range cs.ids {
		r := rngFor(b.opt.seed, "cycle-writes/"+id, c)
		for n := 0; n < cs.spec.writes; n++ {
			k := r.Intn(len(cs.ver[i]))
			v := cs.ver[i][k] + 1
			payload(&data, b.opt.seed, cycleTag(i), uint64(k), v)
			err := retrySheds(b, "cycle", func() error { return cs.srv.WriteBlock(id, uint64(k), data[:]) })
			b.op(err)
			if err == nil {
				cs.ver[i][k] = v
			}
		}
	}

	cid := b.tr.begin("power_cycle", 0, int64(c))
	defer b.tr.end(cid)
	t0 := time.Now()
	err := cs.srv.Shutdown(cs.dir)
	t1 := time.Now()
	b.tr.record("serve.shutdown", cid, int64(c), t0, t1)
	b.op(err)
	if err != nil {
		return fmt.Errorf("cycle %d shutdown: %w", c, err)
	}
	next := serve.New(cycleServeConfig())
	err = next.LoadState(cs.dir)
	t2 := time.Now()
	b.tr.record("serve.load_state", cid, int64(c), t1, t2)
	b.op(err)
	if err != nil {
		return fmt.Errorf("cycle %d load: %w", c, err)
	}
	cs.srv = next
	r := rngFor(b.opt.seed, "cycle-reads", c)
	for i, id := range cs.ids {
		k := r.Intn(len(cs.ver[i]))
		s := time.Now()
		got, err := cs.srv.ReadBlock(id, uint64(k))
		b.tr.record("serve.read_block", cid, int64(c), s, time.Now())
		b.op(checkRead(got, err, b.opt.seed, cycleTag(i), uint64(k), cs.ver[i][k]))
	}
	end := time.Now()
	cs.restart = append(cs.restart, end.Sub(t0).Seconds())
	cs.shutdown = append(cs.shutdown, t1.Sub(t0).Seconds())
	cs.loads = append(cs.loads, t2.Sub(t1).Seconds())
	for _, id := range cs.ids {
		a, err := cs.srv.Audit(id)
		if err == nil && !a.OK() {
			err = fmt.Errorf("tenant %s audit after LoadState: %v", id, a.Violations)
		}
		b.op(err)
	}
	return nil
}

// finish reports restart_s: the median downtime from the start of
// Shutdown until every tenant has served a verified read.
func (cs *cycler) finish() error {
	b := cs.b
	if len(cs.restart) == 0 {
		return fmt.Errorf("cycles: no power cycle ran")
	}
	b.setE2E("restart_s", "s", median(cs.restart), len(cs.restart))
	if b.tr == nil {
		return nil
	}
	b.setLayer("serve.shutdown_s", "s", median(cs.shutdown))
	b.setLayer("serve.load_state_s", "s", median(cs.loads))
	return cs.imageLayers()
}

// imageLayers times SaveImage and OpenImage on the first tenant's state
// directly, below the serving layer.
func (cs *cycler) imageLayers() error {
	b := cs.b
	scheme, err := serve.ParseScheme(cs.cfg[0].Scheme)
	if err != nil {
		return err
	}
	cfg := anubis.Config{Scheme: scheme, MemoryBytes: cs.cfg[0].MemoryBytes}
	var save, open []float64
	var size int
	for i := 0; i < 5; i++ {
		var buf bytes.Buffer
		var d time.Duration
		err := cs.srv.Do(cs.ids[0], "bench_save_image", func(sys *anubis.SafeSystem) error {
			var err error
			d = b.tr.timed("anubis.save_image", 0, int64(i), func() { err = sys.SaveImage(&buf) })
			return err
		})
		b.op(err)
		if err != nil {
			return err
		}
		save = append(save, float64(d.Nanoseconds())/1e6)
		size = buf.Len()
		d = b.tr.timed("anubis.open_image", 0, int64(i), func() { _, _, err = anubis.OpenImage(cfg, &buf) })
		b.op(err)
		if err != nil {
			return err
		}
		open = append(open, float64(d.Nanoseconds())/1e6)
	}
	b.setLayer("anubis.save_image_ms", "ms", median(save))
	b.setLayer("anubis.open_image_ms", "ms", median(open))
	b.setLayer("anubis.image_mb", "MB", float64(size)/(1<<20))
	return nil
}

// checkRead compares a read against the acknowledged version.
func checkRead(got []byte, err error, seed int64, tag, blk uint64, ver uint32) error {
	if err != nil {
		return fmt.Errorf("read %d: %w", blk, err)
	}
	var want [anubis.BlockSize]byte
	payload(&want, seed, tag, blk, ver)
	if !bytes.Equal(got, want[:]) {
		return fmt.Errorf("block %d: read differs from acknowledged version %d", blk, ver)
	}
	return nil
}
