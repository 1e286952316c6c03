package nvm

// Read-only decoder for v1 images: the original map-based gob encoding,
// written by every build before the v2 page format. Nothing writes v1
// any more; LoadDevice falls back to this decoder for any input that
// does not start with the v2 magic, so images already on disk still
// open.

import (
	"bytes"
	"encoding/gob"
)

// imageMagicV1 is the Magic field of a v1 image.
const imageMagicV1 = "anubis-nvm-image-v1"

// deviceImageV1 is the gob-encoded form of a v1 image. Field names and
// types are the wire format: do not change them.
type deviceImageV1 struct {
	Magic  string
	Timing Timing

	Store [numRegions]map[uint64][BlockBytes]byte
	Side  map[uint64]Sideband
	Regs  map[string][BlockBytes]byte
	Wear  [numRegions]map[uint64]uint64

	Staged  []PendingWrite
	DoneBit bool

	// Journal is the persistent epoch journal (see journal.go). Absent
	// in pre-epoch images; gob leaves the field nil, which loads as an
	// empty journal.
	Journal []JournalEntry
}

// loadV1 decodes a complete v1 image.
func loadV1(buf []byte) (*Device, error) {
	// gob sizes a nil map from the element count in the input before
	// decoding any element, so a corrupt count could demand gigabytes.
	// Into a non-nil map it inserts one decoded element at a time, and
	// a count larger than the input fails when the input runs out.
	img := deviceImageV1{
		Side: make(map[uint64]Sideband),
		Regs: make(map[string][BlockBytes]byte),
	}
	for r := range img.Store {
		img.Store[r] = make(map[uint64][BlockBytes]byte)
		img.Wear[r] = make(map[uint64]uint64)
	}
	if err := gob.NewDecoder(bytes.NewReader(buf)).Decode(&img); err != nil {
		return nil, corrupt("v1 decode: %v", err)
	}
	if img.Magic != imageMagicV1 {
		return nil, corrupt("not an NVM image (magic %q)", img.Magic)
	}
	if err := checkTiming(img.Timing); err != nil {
		return nil, err
	}
	if err := checkStaged(img.Staged); err != nil {
		return nil, err
	}
	d := NewDevice(img.Timing)
	for reg := Region(0); reg < numRegions; reg++ {
		s := &d.store[reg]
		for idx, blk := range img.Store[reg] {
			b := blk
			s.setPresent(idx, &b)
		}
		for idx, c := range img.Wear[reg] {
			p, o := s.slot(idx)
			p.wear[o] = c
		}
	}
	for idx, sb := range img.Side {
		p, o := d.store[RegionData].slot(idx)
		if p.side == nil {
			p.side = new([pageBlocks]Sideband)
		}
		p.side[o] = sb
	}
	d.regs = img.Regs
	d.staged = img.Staged
	d.doneBit = img.DoneBit
	if err := d.setJournal(img.Journal); err != nil {
		return nil, err
	}
	return d, nil
}
