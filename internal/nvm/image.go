package nvm

// Image persistence: a Device can be serialized to an io.Writer and
// restored later, modeling a real NVM DIMM whose contents survive a
// process (not just a power) cycle. The image captures everything in
// the persistence domain — the block stores, data sideband, on-chip
// persistent registers, committed-but-undrained groups, the epoch
// journal, and wear counters. Volatile timing state is deliberately
// excluded.
//
// Save writes the v2 page format, streamed in order through a buffered
// writer (all integers little-endian):
//
//	magic     "anubis-nvm-image-v2\n"
//	header    Timing (6 x u64), DoneBit (u8), register, staged-write and
//	          journal counts (3 x u64), page-record count per region
//	          (numRegions x u64)
//	pages     per region in Region order, per non-empty page in ascending
//	          page order: base (u64), presence bitmap (presentWords x u64),
//	          wear (pageBlocks x u64), the 64-byte payload of each present
//	          block in block order; data pages then carry a sideband flag
//	          (u8) and, when it is 1, pageBlocks sidebands (17 bytes each)
//	registers in name order: name length (u32), name, value (64 bytes)
//	staged    the commit group in stage order (fixed 168-byte records
//	          plus the register name)
//	journal   in note order: key (u64), Old, New (64 bytes each)
//	trailer   CRC32C (Castagnoli) of every byte before it (u32)
//
// The format is canonical: equal persistent state gives equal bytes,
// and Save(Load(Save(d))) == Save(d). LoadDevice reads the whole image
// and verifies the checksum before it allocates a single page, so a
// torn, bit-flipped or over-long image is rejected with ErrCorruptImage
// and never loads partially. Input without the v2 magic goes to the
// read-only v1 (gob) decoder in image_v1.go; Save is the only writer.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math/bits"
	"sort"
)

// ErrCorruptImage reports an image that is truncated, fails its
// checksum, or holds a field no Save could have written. Match with
// errors.Is.
var ErrCorruptImage = errors.New("nvm: corrupt image")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorruptImage}, args...)...)
}

const imageMagicV2 = "anubis-nvm-image-v2\n"

// Fixed sizes of the v2 records, in bytes.
const (
	timingWords     = 6
	imageHeaderLen  = timingWords*8 + 1 + 3*8 + int(numRegions)*8
	pageFixedLen    = 8 + presentWords*8 + pageBlocks*8 // base, presence, wear
	sidebandLen     = 8 + 8 + 1                         // ECC, MAC, Phase
	maxPageLen      = pageFixedLen + pageBlocks*BlockBytes + 1 + pageBlocks*sidebandLen
	regFixedLen     = 4 + BlockBytes
	stagedFixedLen  = 1 + 8 + BlockBytes + 1 + sidebandLen + 4 + 1 + 8 + BlockBytes
	journalEntryLen = 8 + 2*BlockBytes
	trailerLen      = 4

	// maxTimingUnits bounds the bank, WPQ and write-port counts an image
	// may declare: NewDevice allocates per unit, so a corrupt count must
	// not become an unbounded allocation. Real DIMMs have a handful.
	maxTimingUnits = 1 << 16

	// saveBufBytes sizes Save's write buffer: a few dozen page records
	// per underlying Write.
	saveBufBytes = 64 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var le = binary.LittleEndian

// crcWriter checksums everything written through it.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	return n, err
}

// empty reports a page that holds nothing persistent: no present block
// and no wear. Save skips such pages.
func (p *page) empty() bool {
	for _, w := range p.present {
		if w != 0 {
			return false
		}
	}
	for _, c := range p.wear {
		if c != 0 {
			return false
		}
	}
	return true
}

// Save writes the device's persistent state to w in the v2 format.
func (d *Device) Save(w io.Writer) error {
	var npages [numRegions]uint64
	for r := range d.store {
		d.store[r].forEachPage(func(_ uint64, p *page) {
			if !p.empty() {
				npages[r]++
			}
		})
	}
	names := d.regNames()

	cw := &crcWriter{w: w}
	bw := bufio.NewWriterSize(cw, saveBufBytes)
	var scratch [maxPageLen]byte
	rec := append(scratch[:0], imageMagicV2...)
	t := &d.timing
	for _, v := range [timingWords]uint64{t.ReadNS, t.WriteNS, uint64(t.Banks), uint64(t.WPQEntries), uint64(t.WritePorts), uint64(t.DrainWatermark)} {
		rec = le.AppendUint64(rec, v)
	}
	rec = append(rec, boolByte(d.doneBit))
	rec = le.AppendUint64(rec, uint64(len(names)))
	rec = le.AppendUint64(rec, uint64(len(d.staged)))
	rec = le.AppendUint64(rec, uint64(len(d.journal)))
	for _, n := range npages {
		rec = le.AppendUint64(rec, n)
	}
	bw.Write(rec)

	for r := Region(0); r < numRegions; r++ {
		d.store[r].forEachPage(func(base uint64, p *page) {
			if !p.empty() {
				bw.Write(appendPage(scratch[:0], r, base, p))
			}
		})
	}
	for _, k := range names {
		rec = le.AppendUint32(scratch[:0], uint32(len(k)))
		rec = append(rec, k...)
		blk := d.regs[k]
		bw.Write(append(rec, blk[:]...))
	}
	for i := range d.staged {
		bw.Write(appendStaged(scratch[:0], &d.staged[i]))
	}
	for i := range d.journal {
		e := &d.journal[i]
		rec = le.AppendUint64(scratch[:0], e.Key)
		rec = append(rec, e.Old[:]...)
		bw.Write(append(rec, e.New[:]...))
	}
	// bufio keeps the first write error and reports it here.
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("nvm: save image: %w", err)
	}
	if _, err := w.Write(le.AppendUint32(scratch[:0], cw.crc)); err != nil {
		return fmt.Errorf("nvm: save image: %w", err)
	}
	return nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func (d *Device) regNames() []string {
	names := make([]string, 0, len(d.regs))
	for k := range d.regs {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func appendPage(b []byte, r Region, base uint64, p *page) []byte {
	b = le.AppendUint64(b, base)
	for _, w := range p.present {
		b = le.AppendUint64(b, w)
	}
	for _, c := range p.wear {
		b = le.AppendUint64(b, c)
	}
	for o := 0; o < pageBlocks; o++ {
		if p.present[o>>6]&(1<<(uint(o)&63)) != 0 {
			b = append(b, p.data[o][:]...)
		}
	}
	if r == RegionData {
		if p.side == nil {
			return append(b, 0)
		}
		b = append(b, 1)
		for o := range p.side {
			b = appendSideband(b, &p.side[o])
		}
	}
	return b
}

func appendSideband(b []byte, s *Sideband) []byte {
	b = append(b, s.ECC[:]...)
	b = le.AppendUint64(b, s.MAC)
	return append(b, s.Phase)
}

func appendStaged(b []byte, w *PendingWrite) []byte {
	b = append(b, byte(w.Region))
	b = le.AppendUint64(b, w.Index)
	b = append(b, w.Block[:]...)
	b = append(b, boolByte(w.HasSide))
	b = appendSideband(b, &w.Side)
	b = le.AppendUint32(b, uint32(len(w.RegName)))
	b = append(b, byte(w.JOp))
	b = le.AppendUint64(b, w.JKey)
	b = append(b, w.JOld[:]...)
	return append(b, w.RegName...)
}

// StateDigest returns a deterministic FNV-1a hash over the device's
// persistent state: the quantities Save serializes, in canonical order.
// Two devices with equal digests hold identical persistent images, and
// Save writes them as identical bytes; the digest is the cheap way to
// compare without serializing.
func (d *Device) StateDigest() uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	mix64 := func(v uint64) {
		for i := uint(0); i < 64; i += 8 {
			mix(byte(v >> i))
		}
	}
	mixSide := func(s Sideband) {
		for _, b := range s.ECC {
			mix(b)
		}
		mix64(s.MAC)
		mix(s.Phase)
	}
	mix64(d.timing.ReadNS)
	mix64(d.timing.WriteNS)
	for r := Region(0); r < numRegions; r++ {
		mix64(uint64(r))
		// forEachPage visits pages in ascending page-index order, and
		// block order within a page is fixed, so this walk is canonical.
		d.store[r].forEachPage(func(base uint64, p *page) {
			for o := 0; o < pageBlocks; o++ {
				present := p.present[o>>6]&(1<<(uint(o)&63)) != 0
				if !present && p.wear[o] == 0 {
					continue
				}
				mix64(base + uint64(o))
				mix64(p.wear[o])
				if !present {
					continue
				}
				mix(1)
				for _, b := range p.data[o] {
					mix(b)
				}
				if r == RegionData && p.side != nil {
					mixSide(p.side[o])
				}
			}
		})
	}
	for _, k := range d.regNames() {
		for i := 0; i < len(k); i++ {
			mix(k[i])
		}
		blk := d.regs[k]
		for _, b := range blk {
			mix(b)
		}
	}
	for i := range d.staged {
		w := &d.staged[i]
		mix64(uint64(w.Region))
		mix64(w.Index)
		for _, b := range w.Block {
			mix(b)
		}
		if w.HasSide {
			mixSide(w.Side)
		}
		for i := 0; i < len(w.RegName); i++ {
			mix(w.RegName[i])
		}
		if w.JOp != JournalNone {
			mix(byte(w.JOp))
			mix64(w.JKey)
			for _, b := range w.JOld {
				mix(b)
			}
		}
	}
	if d.doneBit {
		mix(1)
	}
	// Journal entries in note order: the order recovery replays them in
	// is part of the persistent state.
	for i := range d.journal {
		e := &d.journal[i]
		mix64(e.Key)
		for _, b := range e.Old {
			mix(b)
		}
		for _, b := range e.New {
			mix(b)
		}
	}
	// The rest of Timing: Save persists all of it.
	mix64(uint64(d.timing.Banks))
	mix64(uint64(d.timing.WPQEntries))
	mix64(uint64(d.timing.WritePorts))
	mix64(uint64(d.timing.DrainWatermark))
	return h
}

// LoadDevice restores a Device from an image produced by Save (v2) or
// by a build that wrote v1 images. The returned device is in
// post-power-cycle state: bank/WPQ timing is reset, and any
// committed-but-undrained group is still pending its RedoCommitted.
// A damaged image yields an error matching ErrCorruptImage; an error
// reading r is returned wrapped as is.
func LoadDevice(r io.Reader) (*Device, error) {
	buf, err := readImage(r)
	if err != nil {
		return nil, fmt.Errorf("nvm: load image: %w", err)
	}
	if !bytes.HasPrefix(buf, []byte(imageMagicV2)) {
		return loadV1(buf)
	}
	return loadV2(buf)
}

// readImage reads all of r. Files and in-memory readers report their
// size, which presizes the buffer: a multi-megabyte image is then read
// without repeated regrowth and copying.
func readImage(r io.Reader) ([]byte, error) {
	var b bytes.Buffer
	switch s := r.(type) {
	case interface{ Len() int }:
		b.Grow(s.Len() + bytes.MinRead)
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := s.Stat(); err == nil && fi.Mode().IsRegular() {
			b.Grow(int(fi.Size()) + bytes.MinRead)
		}
	}
	_, err := b.ReadFrom(r)
	return b.Bytes(), err
}

// imgReader is a bounds-checked cursor over an image body. Reads past
// the end return zeros and set short, which callers check once per
// record.
type imgReader struct {
	b     []byte
	short bool
}

func (r *imgReader) take(n uint64) []byte {
	if r.short || n > uint64(len(r.b)) {
		r.short = true
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

func (r *imgReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return le.Uint64(b)
	}
	return 0
}

func (r *imgReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return le.Uint32(b)
	}
	return 0
}

func (r *imgReader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// count reads a record count and checks that the remaining input can
// hold that many records of at least minLen bytes, so no count can
// size an allocation beyond what the image actually carries.
func (r *imgReader) count(minLen uint64, budget *uint64) (uint64, bool) {
	n := r.u64()
	if r.short || n > *budget/minLen {
		return 0, false
	}
	*budget -= n * minLen
	return n, true
}

func (r *imgReader) block(dst *[BlockBytes]byte) {
	copy(dst[:], r.take(BlockBytes))
}

func (r *imgReader) sideband(s *Sideband) {
	copy(s.ECC[:], r.take(uint64(len(s.ECC))))
	s.MAC = r.u64()
	s.Phase = r.u8()
}

// loadV2 decodes a complete v2 image.
func loadV2(buf []byte) (*Device, error) {
	if len(buf) < len(imageMagicV2)+imageHeaderLen+trailerLen {
		return nil, corrupt("truncated header (%d bytes)", len(buf))
	}
	n := len(buf) - trailerLen
	if got, want := crc32.Checksum(buf[:n], castagnoli), le.Uint32(buf[n:]); got != want {
		return nil, corrupt("checksum %#08x, trailer says %#08x", got, want)
	}
	r := &imgReader{b: buf[len(imageMagicV2):n]}

	var t Timing
	t.ReadNS = r.u64()
	t.WriteNS = r.u64()
	t.Banks = int(r.u64())
	t.WPQEntries = int(r.u64())
	t.WritePorts = int(r.u64())
	t.DrainWatermark = int(r.u64())
	if err := checkTiming(t); err != nil {
		return nil, err
	}
	done := r.u8()
	if done > 1 {
		return nil, corrupt("DONE_BIT byte %d", done)
	}
	budget := uint64(len(r.b)) - (3+uint64(numRegions))*8
	nregs, ok1 := r.count(regFixedLen, &budget)
	nstaged, ok2 := r.count(stagedFixedLen, &budget)
	njournal, ok3 := r.count(journalEntryLen, &budget)
	if !ok1 || !ok2 || !ok3 {
		return nil, corrupt("register/staged/journal counts exceed the image")
	}
	var npages [numRegions]uint64
	for reg := range npages {
		minLen := uint64(pageFixedLen)
		if Region(reg) == RegionData {
			minLen++
		}
		var ok bool
		if npages[reg], ok = r.count(minLen, &budget); !ok {
			return nil, corrupt("%s page count exceeds the image", Region(reg))
		}
	}

	d := NewDevice(t)
	d.doneBit = done == 1
	for reg := Region(0); reg < numRegions; reg++ {
		if err := d.store[reg].loadPages(r, reg, npages[reg]); err != nil {
			return nil, err
		}
	}
	prev := ""
	for i := uint64(0); i < nregs; i++ {
		name := string(r.take(uint64(r.u32())))
		if r.short || (i > 0 && name <= prev) {
			return nil, corrupt("register record %d", i)
		}
		var v [BlockBytes]byte
		r.block(&v)
		d.regs[name], prev = v, name
	}
	if nstaged > 0 {
		d.staged = make([]PendingWrite, nstaged)
	}
	for i := range d.staged {
		w := &d.staged[i]
		w.Region = Region(r.u8())
		w.Index = r.u64()
		r.block(&w.Block)
		hasSide := r.u8()
		w.HasSide = hasSide == 1
		r.sideband(&w.Side)
		nameLen := r.u32()
		w.JOp = JournalOp(r.u8())
		w.JKey = r.u64()
		r.block(&w.JOld)
		w.RegName = string(r.take(uint64(nameLen)))
		if r.short || hasSide > 1 {
			return nil, corrupt("staged record %d", i)
		}
	}
	if err := checkStaged(d.staged); err != nil {
		return nil, err
	}
	journal := make([]JournalEntry, njournal)
	for i := range journal {
		e := &journal[i]
		e.Key = r.u64()
		r.block(&e.Old)
		r.block(&e.New)
	}
	if r.short {
		return nil, corrupt("truncated journal")
	}
	if err := d.setJournal(journal); err != nil {
		return nil, err
	}
	if len(r.b) != 0 {
		return nil, corrupt("%d bytes after the journal", len(r.b))
	}
	return d, nil
}

// loadPages installs n page records of region reg straight into the
// store: one page allocation per record, no per-block slot lookups.
// Records must be non-empty and in strictly ascending page order, as
// Save writes them.
func (s *pagedStore) loadPages(r *imgReader, reg Region, n uint64) error {
	var sides [][pageBlocks]Sideband
	if reg == RegionData && n > 0 {
		sides = make([][pageBlocks]Sideband, 0, n)
	}
	var prev uint64 // page index of the previous record
	for i := uint64(0); i < n; i++ {
		fixed := r.take(pageFixedLen)
		if fixed == nil {
			return corrupt("truncated %s page record %d", reg, i)
		}
		base := le.Uint64(fixed)
		if base&pageMask != 0 || (i > 0 && base>>pageShift <= prev) {
			return corrupt("%s page record %d: base %d out of order or unaligned", reg, i, base)
		}
		prev = base >> pageShift
		var present [presentWords]uint64
		var nblocks int
		for w := range present {
			present[w] = le.Uint64(fixed[8+8*w:])
			nblocks += bits.OnesCount64(present[w])
		}
		if pageBlocks < 64 && present[0]>>pageBlocks != 0 {
			return corrupt("%s page record %d: presence bits beyond the page", reg, i)
		}
		payload := r.take(uint64(nblocks) * BlockBytes)
		if payload == nil && nblocks > 0 {
			return corrupt("truncated %s page record %d", reg, i)
		}
		p, _ := s.slot(base)
		p.present = present
		worn := false
		for o := range p.wear {
			p.wear[o] = le.Uint64(fixed[8+8*presentWords+8*o:])
			worn = worn || p.wear[o] != 0
		}
		if nblocks == 0 && !worn {
			return corrupt("%s page record %d is empty", reg, i)
		}
		for o := 0; o < pageBlocks; o++ {
			if present[o>>6]&(1<<(uint(o)&63)) != 0 {
				copy(p.data[o][:], payload)
				payload = payload[BlockBytes:]
			}
		}
		s.count += nblocks
		if reg == RegionData {
			switch r.u8() {
			case 0:
			case 1:
				sides = append(sides, [pageBlocks]Sideband{})
				p.side = &sides[len(sides)-1]
				for o := range p.side {
					r.sideband(&p.side[o])
				}
			default:
				return corrupt("data page record %d: bad sideband flag", i)
			}
			if r.short {
				return corrupt("truncated data page record %d", i)
			}
		}
	}
	return nil
}

// checkTiming rejects timing no device can be built from, or that would
// make NewDevice allocate without bound.
func checkTiming(t Timing) error {
	if t.Banks <= 0 || t.Banks > maxTimingUnits || t.WPQEntries <= 0 || t.WPQEntries > maxTimingUnits || t.WritePorts > maxTimingUnits {
		return corrupt("timing %+v", t)
	}
	return nil
}

// checkStaged rejects staged writes the device could not apply.
func checkStaged(ws []PendingWrite) error {
	for i := range ws {
		w := &ws[i]
		if w.Region >= numRegions || w.JOp > JournalClear || (w.HasSide && w.Region != RegionData) {
			return corrupt("staged write %d: region %d, journal op %d, sideband %v", i, w.Region, w.JOp, w.HasSide)
		}
	}
	return nil
}

// setJournal installs a loaded epoch journal, rejecting duplicate keys
// (applyJournal keeps one entry per key).
func (d *Device) setJournal(entries []JournalEntry) error {
	if len(entries) == 0 {
		return nil
	}
	idx := make(map[uint64]int, len(entries))
	for i := range entries {
		if _, dup := idx[entries[i].Key]; dup {
			return corrupt("journal key %d appears twice", entries[i].Key)
		}
		idx[entries[i].Key] = i
	}
	d.journal, d.journalIdx = entries, idx
	return nil
}
