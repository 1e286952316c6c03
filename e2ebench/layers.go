package main

import (
	"encoding/binary"
	"runtime"
	"time"

	"anubis/internal/cache"
	"anubis/internal/counter"
	"anubis/internal/cryptoeng"
	"anubis/internal/ecc"
	"anubis/internal/memctrl"
	"anubis/internal/nvm"
	"anubis/internal/sim"
)

// Sinks keep the compiler from discarding the timed leaf calls.
var (
	sinkBlock [64]byte
	sinkU64   uint64
	sinkECC   [8]uint8
	sinkSplit counter.Split
	sinkBool  bool
)

// leafLoop times n calls of fn, five times, and reports the median
// ns/call and the heap allocations per call of the last round.
func leafLoop(b *bench, name string, n int, fn func(i int)) {
	var ns []float64
	var allocs float64
	for round := 0; round < 5; round++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		b.tr.record(name, 0, int64(round), t0, t0.Add(d))
		ns = append(ns, float64(d.Nanoseconds())/float64(n))
		allocs = float64(m1.Mallocs-m0.Mallocs) / float64(n)
	}
	b.setLayer(name+"_ns", "ns", median(ns))
	b.setLayer(name+".allocs", "count", allocs)
}

// leafLayers times tight loops over each leaf layer's public calls:
// the crypto engine, ECC, counter packing, the metadata cache and the
// NVM device. The loops mirror the packages' own micro-benchmarks.
func leafLayers(b *bench) {
	runtime.GC()
	const n = 200000
	e := cryptoeng.NewTestEngine()
	var src, dst [64]byte
	for i := range src {
		src[i] = byte(i * 7)
	}
	leafLoop(b, "cryptoeng.pad", n, func(i int) { e.EncryptTo(dst[:], src[:], uint64(i), uint64(i)) })
	leafLoop(b, "cryptoeng.data_mac", n, func(i int) { sinkU64 = e.DataMAC(uint64(i), 1, src[:]) })
	leafLoop(b, "cryptoeng.tree_hash", n, func(i int) { sinkU64 = e.TreeHash(uint64(i), src[:]) })
	sinkBlock = dst

	blk := make([]byte, 64)
	binary.LittleEndian.PutUint64(blk, 0x123456789)
	leafLoop(b, "ecc.encode_block", n, func(i int) { sinkECC = ecc.EncodeBlock(blk) })

	var s counter.Split
	s.Major = 12345
	for i := range s.Minors {
		s.Minors[i] = uint8(i & counter.MinorMax)
	}
	packed := s.Pack()
	leafLoop(b, "counter.split_pack", n, func(i int) { sinkBlock = s.Pack() })
	leafLoop(b, "counter.split_unpack", n, func(i int) { sinkSplit = counter.UnpackSplit(packed) })

	var line [64]byte
	hit := cache.New(4096, 8)
	for k := uint64(0); k < 1024; k++ {
		hit.Insert(k, line)
	}
	leafLoop(b, "cache.lookup_hit", n, func(i int) { _, sinkBool = hit.Lookup(uint64(i) & 1023) })
	ev := cache.New(4096, 8)
	key := uint64(0)
	leafLoop(b, "cache.insert_evict", n, func(i int) {
		key++
		if !ev.Contains(key) {
			ev.Insert(key, line)
		}
	})

	dev := nvm.NewDevice(nvm.DefaultTiming())
	now := uint64(0)
	leafLoop(b, "nvm.push", n, func(i int) {
		now = dev.Push(nvm.PendingWrite{Region: nvm.RegionData, Index: uint64(i) & 0xffff}, now)
		now += 200 // inter-arrival gap so the WPQ drains
	})
	leafLoop(b, "nvm.read_at", n, func(i int) { _, now = dev.ReadAt(nvm.RegionData, uint64(i)&0xffff, now) })

	// Controller construction at paper scale, per family: this is where
	// the paged store's slabs are allocated and zeroed.
	for _, f := range []sim.Family{sim.FamilyBonsai, sim.FamilySGX} {
		var us []float64
		for i := 0; i < 5; i++ {
			cfg := memctrl.DefaultConfig(memctrl.SchemeWriteBack)
			cfg.MemoryBytes = sweepMemBytes
			t0 := time.Now()
			_, err := sim.NewController(f, cfg)
			d := time.Since(t0)
			b.op(err)
			b.tr.record("memctrl.new_controller/"+f.String(), 0, int64(i), t0, t0.Add(d))
			us = append(us, float64(d.Nanoseconds())/1e3)
		}
		b.setLayer("memctrl.new_controller_us."+f.String(), "us", median(us))
	}
	b.setLayer("trace.arena_build_ms", "ms", median(append([]float64(nil), b.arenaBuildMS...)))
}
