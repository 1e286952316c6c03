//go:build ignore

// gen_v1_fixture writes v1_agitplus_1mib.img, the legacy (gob, v1)
// image that TestOpenV1Fixture and FuzzLoadDevice read. It must run in
// a checkout whose Device.Save still writes v1 images — commit 2b1b7c3
// or earlier — because the current tree has no v1 writer:
//
//	cp gen_v1_fixture.go <old-checkout>/internal/nvm/testdata/
//	cd <old-checkout> && go run ./internal/nvm/testdata/gen_v1_fixture.go <out.img>
//
// The device is a 1 MiB AGIT-Plus controller with Start-Gap wear
// leveling (period 4, so rotations erase data lines) and the epoch
// pipeline (8 writes per epoch, so the journal is non-empty mid-epoch).
// The last write's commit group is cut after one push and the
// controller crashes, so the image carries DONE_BIT and a staged group.
//
// It prints the generating device's StateDigest under the current
// definition, which hashes every Timing field: the old StateDigest
// covered only ReadNS/WriteNS, and the current one continues the same
// FNV-1a stream with Banks, WPQEntries, WritePorts and DrainWatermark.
package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"

	"anubis/internal/memctrl"
	"anubis/internal/nvm"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: go run gen_v1_fixture.go <out.img>")
		os.Exit(2)
	}
	// Mirrors anubis.Config{Scheme: AGITPlus, MemoryBytes: 1 << 20,
	// WearLevelingPeriod: 4}, plus the epoch pipeline.
	cfg := memctrl.DefaultConfig(memctrl.SchemeAGITPlus)
	cfg.MemoryBytes = 1 << 20
	cfg.WearPeriod = 4
	cfg.EpochRequests = 8
	b, err := memctrl.NewBonsai(cfg)
	check(err)

	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 61; i++ {
		var d [memctrl.BlockBytes]byte
		rng.Read(d[:])
		check(b.WriteBlock(uint64(rng.Intn(64)), d))
	}
	dev := b.Device()
	dev.SetPushBudget(1)
	var d [memctrl.BlockBytes]byte
	rng.Read(d[:])
	check(b.WriteBlock(7, d))
	b.Crash()

	erased := false
	for i := uint64(0); i < b.NumBlocks()+1; i++ {
		if !dev.Has(nvm.RegionData, i) && dev.WearOf(nvm.RegionData, i) > 0 {
			erased = true
		}
	}
	side := false
	for _, i := range dev.BlocksIn(nvm.RegionData) {
		if dev.ReadSideband(i) != (nvm.Sideband{}) {
			side = true
		}
	}
	if !erased || !side || !dev.DoneBit() || dev.StagedLen() == 0 || dev.JournalLen() == 0 {
		fail(fmt.Sprintf("fixture lacks a feature: erased=%v side=%v done=%v staged=%d journal=%d",
			erased, side, dev.DoneBit(), dev.StagedLen(), dev.JournalLen()))
	}

	var buf bytes.Buffer
	check(dev.Save(&buf))
	check(os.WriteFile(os.Args[1], buf.Bytes(), 0o644))
	fmt.Printf("bytes=%d digest=%#016x staged=%d journal=%d\n",
		buf.Len(), currentDigest(dev), dev.StagedLen(), dev.JournalLen())

	// Sanity check at generation time: the image must reopen, recover
	// and audit clean.
	l, err := nvm.LoadDevice(&buf)
	check(err)
	b2, err := memctrl.OpenBonsai(cfg, l)
	check(err)
	_, err = b2.Recover()
	check(err)
	rep, err := b2.AuditNVM()
	check(err)
	if !rep.OK() {
		fail(fmt.Sprint("audit: ", rep.Violations))
	}
}

// currentDigest extends the old StateDigest (which stops after the
// journal) with the Timing fields it left out, in the order the current
// definition mixes them.
func currentDigest(dev *nvm.Device) uint64 {
	h := dev.StateDigest()
	t := dev.Timing()
	for _, v := range []uint64{uint64(t.Banks), uint64(t.WPQEntries), uint64(t.WritePorts), uint64(t.DrainWatermark)} {
		for i := uint(0); i < 64; i += 8 {
			h ^= uint64(byte(v >> i))
			h *= 1099511628211
		}
	}
	return h
}

func check(err error) {
	if err != nil {
		fail(err.Error())
	}
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "gen_v1_fixture:", msg)
	os.Exit(1)
}
