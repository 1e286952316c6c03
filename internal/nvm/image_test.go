package nvm

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"testing"
)

// v1Fixture is a v1 (gob) image written by a build that still had the
// v1 writer; testdata/gen_v1_fixture.go documents how.
const v1Fixture = "testdata/v1_agitplus_1mib.img"

// richDevice holds one of everything an image carries: data pages with
// and without sidebands, an erased block with nonzero wear, a page in
// the overflow map, registers, an epoch journal, and a committed group
// cut short by power loss (DONE_BIT set, entries still staged).
func richDevice() *Device {
	d := newDev()
	for i := uint64(0); i < 20; i++ {
		d.WriteRawData(i*3, blk(byte(i+1)), Sideband{ECC: [8]uint8{byte(i)}, MAC: i + 1, Phase: byte(i)})
	}
	d.Push(PendingWrite{Region: RegionData, Index: 200, Block: blk(40)}, 0) // data page without sideband
	d.Erase(RegionData, 3)
	d.Push(PendingWrite{Region: RegionCounter, Index: 2, Block: blk(9)}, 0)
	d.Push(PendingWrite{Region: RegionTree, Index: 1 << 30, Block: blk(8)}, 0) // beyond the directory cap
	d.SetReg64("root", 77)
	d.SetReg("anchor", []byte{1, 2, 3})
	d.Push(PendingWrite{JOp: JournalNote, JKey: 11, JOld: blk(2), Block: blk(3)}, 0)
	d.Push(PendingWrite{JOp: JournalNote, JKey: 4, JOld: blk(4), Block: blk(5)}, 0)

	d.BeginCommit()
	d.Stage(PendingWrite{Region: RegionData, Index: 7, Block: blk(50), HasSide: true, Side: Sideband{MAC: 99}})
	d.Stage(PendingWrite{RegName: "root", Block: blk(51)})
	d.Stage(PendingWrite{JOp: JournalNote, JKey: 12, JOld: blk(52), Block: blk(53)})
	d.SetPushBudget(1)
	d.CommitGroup(0)
	d.SetPushBudget(-1)
	return d
}

func saveBytes(t testing.TB, d *Device) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reseal rewrites a v2 image's trailer to match its body, so a test can
// reach the field checks behind the checksum.
func reseal(img []byte) []byte {
	out := append([]byte(nil), img...)
	n := len(out) - trailerLen
	le.PutUint32(out[n:], crc32.Checksum(out[:n], castagnoli))
	return out
}

// boundary names the end offset of one record of a v2 image.
type boundary struct {
	name string
	off  int
}

// recordBoundaries computes where each record of Save(d) ends from the
// device's own contents and the layout constants, independently of the
// decoder. The last boundary is the end of the image.
func recordBoundaries(d *Device) []boundary {
	off := len(imageMagicV2) + imageHeaderLen
	out := []boundary{{"header", off}}
	for r := Region(0); r < numRegions; r++ {
		d.store[r].forEachPage(func(base uint64, p *page) {
			if p.empty() {
				return
			}
			off += pageFixedLen + bits.OnesCount64(p.present[0])*BlockBytes
			if r == RegionData {
				off++
				if p.side != nil {
					off += pageBlocks * sidebandLen
				}
			}
			out = append(out, boundary{fmt.Sprintf("%s page %d", r, base), off})
		})
	}
	for _, k := range d.regNames() {
		off += regFixedLen + len(k)
		out = append(out, boundary{"register " + k, off})
	}
	for i := range d.staged {
		off += stagedFixedLen + len(d.staged[i].RegName)
		out = append(out, boundary{fmt.Sprintf("staged %d", i), off})
	}
	for i := range d.journal {
		off += journalEntryLen
		out = append(out, boundary{fmt.Sprintf("journal %d", i), off})
	}
	off += trailerLen
	return append(out, boundary{"trailer", off})
}

func TestLoadCorruptImage(t *testing.T) {
	d := richDevice()
	img := saveBytes(t, d)
	bounds := recordBoundaries(d)
	if end := bounds[len(bounds)-1].off; end != len(img) {
		t.Fatalf("layout predicts %d bytes, Save wrote %d", end, len(img))
	}
	flip := func(off int) []byte {
		out := append([]byte(nil), img...)
		out[off] ^= 0x5a
		return out
	}
	// set overwrites one little-endian u64 field and re-seals the
	// checksum, so the field check itself must catch the damage.
	set := func(off int, v uint64) []byte {
		out := append([]byte(nil), img...)
		le.PutUint64(out[off:], v)
		return reseal(out)
	}
	hdr := len(imageMagicV2)
	counts := hdr + timingWords*8 + 1 // register, staged, journal, then page counts
	firstPage := bounds[0].off
	journal := bounds[len(bounds)-3].off // start of the last journal entry

	cases := []struct {
		name string
		img  []byte
	}{
		{"empty", nil},
		{"magic only", []byte(imageMagicV2)},
		{"trailing garbage", append(append([]byte(nil), img...), 0)},
		{"flip magic", flip(3)},
		{"flip header", flip(hdr + 2)},
		{"flip page record", flip(firstPage + pageFixedLen + 5)},
		{"flip journal", flip(journal + 20)},
		{"flip trailer", flip(len(img) - 1)},
		{"resealed zero banks", set(hdr+16, 0)},
		{"resealed huge WPQ", set(hdr+24, 1<<40)},
		{"resealed huge journal count", set(counts+16, 1<<62)},
		{"resealed huge page count", set(counts+24, 1<<40)},
		{"resealed unaligned page base", set(firstPage, 3)},
		{"resealed bad DONE_BIT", reseal(func() []byte {
			out := append([]byte(nil), img...)
			out[hdr+timingWords*8] = 2
			return out
		}())},
		{"resealed extra page", set(counts+24, 1+le.Uint64(img[counts+24:]))},
	}
	for _, b := range bounds[:len(bounds)-1] {
		cases = append(cases, struct {
			name string
			img  []byte
		}{"truncated after " + b.name, img[:b.off]})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := LoadDevice(bytes.NewReader(tc.img)); !errors.Is(err, ErrCorruptImage) {
				t.Fatalf("err = %v, want ErrCorruptImage", err)
			}
		})
	}
	// Every other cut point too: no prefix of an image loads.
	for n := 0; n < len(img); n++ {
		if _, err := LoadDevice(bytes.NewReader(img[:n])); !errors.Is(err, ErrCorruptImage) {
			t.Fatalf("prefix of %d bytes: err = %v, want ErrCorruptImage", n, err)
		}
	}
}

// A read error is the reader's, not the image's: it must not be
// reported as corruption.
func TestLoadReadError(t *testing.T) {
	boom := errors.New("boom")
	_, err := LoadDevice(errReader{boom})
	if !errors.Is(err, boom) || errors.Is(err, ErrCorruptImage) {
		t.Fatalf("err = %v", err)
	}
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

func TestStateDigestCoversTiming(t *testing.T) {
	base := DefaultTiming()
	ref := NewDevice(base).StateDigest()
	for _, mut := range []func(*Timing){
		func(t *Timing) { t.ReadNS++ },
		func(t *Timing) { t.WriteNS++ },
		func(t *Timing) { t.Banks++ },
		func(t *Timing) { t.WPQEntries++ },
		func(t *Timing) { t.WritePorts++ },
		func(t *Timing) { t.DrainWatermark++ },
	} {
		tm := base
		mut(&tm)
		if NewDevice(tm).StateDigest() == ref {
			t.Errorf("digest blind to timing %+v", tm)
		}
	}
}

func TestLoadV1Fixture(t *testing.T) {
	raw, err := os.ReadFile(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	d, err := LoadDevice(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	// A v1 image re-saves as v2 with the same persistent state.
	l, err := LoadDevice(bytes.NewReader(saveBytes(t, d)))
	if err != nil {
		t.Fatal(err)
	}
	if l.StateDigest() != d.StateDigest() {
		t.Fatal("v1 -> v2 conversion changed the state digest")
	}
	// Damage inside the gob stream is corruption too.
	bad := append([]byte(nil), raw[:len(raw)/2]...)
	if _, err := LoadDevice(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptImage) {
		t.Fatalf("truncated v1 image: err = %v", err)
	}
}

// checkLoad is FuzzLoadDevice's property: LoadDevice either rejects the
// input as corrupt, or returns a device whose re-saved image loads back
// to the same state digest.
func checkLoad(t *testing.T, data []byte) {
	d, err := LoadDevice(bytes.NewReader(data))
	if err != nil {
		if !errors.Is(err, ErrCorruptImage) {
			t.Fatalf("non-corruption error from an in-memory reader: %v", err)
		}
		return
	}
	l, err := LoadDevice(bytes.NewReader(saveBytes(t, d)))
	if err != nil {
		t.Fatalf("re-saved image does not load: %v", err)
	}
	if l.StateDigest() != d.StateDigest() {
		t.Fatal("re-saved image loads to a different state")
	}
}

func FuzzLoadDevice(f *testing.F) {
	f.Add(saveBytes(f, richDevice()))
	f.Add(saveBytes(f, newDev()))
	v1, err := os.ReadFile(v1Fixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLoad(t, data)
		// Mutations almost never keep the checksum valid; re-sealing
		// lets the fuzzer reach the record checks behind it.
		if bytes.HasPrefix(data, []byte(imageMagicV2)) && len(data) >= len(imageMagicV2)+trailerLen {
			checkLoad(t, reseal(data))
		}
	})
}
