package anubis

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"anubis/internal/nvm"
)

func TestSaveOpenImageCleanShutdown(t *testing.T) {
	cfg := Config{Scheme: AGITPlus, MemoryBytes: 1 << 20}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 200; i++ {
		if err := sys.WriteBlock(i*11%sys.NumBlocks(), []byte{byte(i), 0xCD}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Flush()
	var buf bytes.Buffer
	if err := sys.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}

	sys2, rep, err := OpenImage(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CountersFixed != 0 {
		t.Fatalf("clean image fixed %d counters", rep.CountersFixed)
	}
	for i := uint64(0); i < 200; i++ {
		got, err := sys2.ReadBlock(i * 11 % sys2.NumBlocks())
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if got[1] != 0xCD {
			t.Fatalf("block %d corrupted across image", i)
		}
	}
}

func TestSaveOpenImageDirtyCrash(t *testing.T) {
	// Saving after a crash (no flush) captures the realistic power-loss
	// image: recovery on the loaded side must repair it.
	cfg := Config{Scheme: ASIT, MemoryBytes: 1 << 20,
		MetaCacheBytes: 4096}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]byte{}
	for i := uint64(0); i < 300; i++ {
		addr := i * 7 % sys.NumBlocks()
		if err := sys.WriteBlock(addr, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		want[addr] = byte(i)
	}
	sys.Crash()
	var buf bytes.Buffer
	if err := sys.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	sys2, rep, err := OpenImage(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EntriesScanned == 0 {
		t.Fatal("dirty image recovered without scanning shadow entries")
	}
	for addr, b := range want {
		got, err := sys2.ReadBlock(addr)
		if err != nil || got[0] != b {
			t.Fatalf("block %d after dirty image: %v", addr, err)
		}
	}
}

func TestAuditPublicAPI(t *testing.T) {
	sys, err := New(Config{Scheme: Strict, MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		sys.WriteBlock(i, []byte{byte(i)})
	}
	rep, err := sys.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.DataBlocks != 100 {
		t.Fatalf("clean audit: ok=%v data=%d violations=%v", rep.OK(), rep.DataBlocks, rep.Violations)
	}
	sys.TamperData(5, 0, 0xFF)
	rep, err = sys.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("audit missed tampering")
	}
}

// TestOpenImageGarbage: junk and a bit-flipped image both fail with
// ErrCorruptImage.
func TestOpenImageGarbage(t *testing.T) {
	cfg := Config{Scheme: AGITPlus, MemoryBytes: 1 << 20}
	if _, _, err := OpenImage(cfg, bytes.NewReader([]byte("junk"))); !errors.Is(err, ErrCorruptImage) {
		t.Fatalf("garbage: %v", err)
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.WriteBlock(3, []byte{1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	img[len(img)/2] ^= 1
	if _, _, err := OpenImage(cfg, bytes.NewReader(img)); !errors.Is(err, ErrCorruptImage) {
		t.Fatalf("bit-flipped image: %v", err)
	}
}

// v1Fixture is a v1 (gob) image of a 1 MiB AGIT-Plus system with
// Start-Gap wear leveling and the epoch pipeline, saved mid-crash by a
// build that still wrote v1 (internal/nvm/testdata/gen_v1_fixture.go).
// It holds data sidebands, an erased block with nonzero wear, on-chip
// registers, a staged commit group with DONE_BIT set, and an epoch
// journal. v1FixtureDigest is the generating device's StateDigest.
const (
	v1Fixture       = "internal/nvm/testdata/v1_agitplus_1mib.img"
	v1FixtureDigest = 0x732e209935f210e4
)

func TestOpenV1Fixture(t *testing.T) {
	raw, err := os.ReadFile(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := nvm.LoadDevice(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got := dev.StateDigest(); got != v1FixtureDigest {
		t.Fatalf("v1 fixture digest %#x, recorded %#x", got, uint64(v1FixtureDigest))
	}
	if !dev.DoneBit() || dev.StagedLen() == 0 || dev.JournalLen() == 0 {
		t.Fatalf("fixture lost state: done=%v staged=%d journal=%d", dev.DoneBit(), dev.StagedLen(), dev.JournalLen())
	}
	cfg := Config{Scheme: AGITPlus, MemoryBytes: 1 << 20, WearLevelingPeriod: 4}
	sys, rep, err := OpenImage(cfg, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if rep.EntriesScanned == 0 {
		t.Fatal("mid-crash image recovered without scanning shadow entries")
	}
	audit, err := sys.Audit()
	if err != nil || !audit.OK() {
		t.Fatalf("audit after opening the v1 fixture: %v %v", err, audit.Violations)
	}
}
