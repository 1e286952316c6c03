package memctrl

// Bank-parallel epoch pipeline with coalesced integrity-tree updates.
//
// The legacy write path updates every Merkle ancestor of the written
// counter block eagerly, once per request: a write to a hot page costs
// Levels() tree-node hashes and, under strict persistence, Levels()
// staged node writes, even though consecutive writes share almost all
// of their root path. The epoch pipeline defers those ancestor updates
// into a per-epoch dirty set and drains them in one coalesced commit
// group every cfg.EpochRequests writes: each dirty ancestor is hashed
// and persisted once per epoch, however many child updates it absorbed.
//
// Crash safety ("coalescing buffer persistence contract"): while a
// window is open, the on-chip root register still anchors the
// epoch-start state. Every epoch write therefore stages a journal note
// inside its atomic commit group (see nvm.Device's epoch journal): the
// note's Old pins the epoch-start content of the block — the value the
// stale register covers — and its New tracks the authoritative current
// content. Recovery from a mid-epoch crash runs two passes: pass A
// rolls journaled blocks back to Old and verifies the stale register,
// pass B replays New, recomputes the journaled root paths and anchors
// the fresh root (see bonsai_recovery.go). The close itself retires the
// window atomically: the coalesced node writes, the fresh root register
// and the journal clear ride one commit group.
//
// With cfg.EpochRequests <= 1 none of this code runs: WriteBlock
// dispatches to the legacy path, byte-identical to pre-epoch builds.

import (
	"sort"

	"anubis/internal/counter"
	"anubis/internal/ecc"
	"anubis/internal/merkle"
	"anubis/internal/nvm"
	"anubis/internal/obs"
)

// writeBlockEpoch is WriteBlock under the epoch pipeline: the counter
// update and the encrypted data block still persist atomically per
// request, but the eager tree-path update is deferred into the epoch's
// dirty set, made crash-safe by the journal note riding in the same
// commit group.
func (b *Bonsai) writeBlockEpoch(idx uint64, data [BlockBytes]byte) error {
	if err := b.checkAddr(idx); err != nil {
		return err
	}
	page, lane := idx/counter.SplitMinors, int(idx%counter.SplitMinors)
	line, err := b.getCounterBlock(page)
	if err != nil {
		return err
	}
	s := counter.UnpackSplit(line.Data)
	if s.Minors[lane] == counter.MinorMax {
		// Page overflow ahead: the re-encryption rewrites every lane of
		// the page, which the coalescing window cannot express. Close
		// the window and take the legacy path for this one write (the
		// counter line is cached, so the retraced prefix costs nothing).
		if err := b.closeEpoch(); err != nil {
			return err
		}
		return b.writeBlockLegacy(idx, data)
	}
	b.stats.WriteRequests++
	b.pending = b.pending[:0]

	epochStart := line.Data
	s.Increment(lane) // cannot overflow: pre-checked above
	line.Data = s.Pack()
	ctr := s.Counter(lane)
	if b.cfg.Scheme == SchemeStrict {
		b.stats.StrictWrites++
		b.pending = append(b.pending, nvm.PendingWrite{Region: nvm.RegionCounter, Index: page, Block: line.Data})
	} else if b.cfg.Scheme == SchemeTriad {
		b.stats.StrictWrites++
		b.cCache.MarkDirty(page)
		b.pending = append(b.pending, nvm.PendingWrite{Region: nvm.RegionCounter, Index: page, Block: line.Data})
	} else if b.cfg.Scheme == SchemeSelective && b.inPersistentRegion(idx) {
		b.stats.StrictWrites++
		b.cCache.MarkDirty(page)
		b.pending = append(b.pending, nvm.PendingWrite{Region: nvm.RegionCounter, Index: page, Block: line.Data})
	} else {
		first := b.cCache.MarkDirty(page)
		if first && b.cfg.Scheme == SchemeAGITPlus {
			b.shadowCounterSlot(line.Slot(), page)
		}
	}

	// Osiris stop-loss, unchanged from the legacy path.
	if b.cfg.Scheme != SchemeWriteBack && b.cfg.Scheme != SchemeStrict &&
		b.cfg.Scheme != SchemeSelective && b.cfg.Recovery != RecoveryPhase {
		if b.updateCount.Inc(page) >= b.cfg.StopLoss {
			b.updateCount.Set(page, 0)
			b.stats.StopLossWrites++
			b.pending = append(b.pending, nvm.PendingWrite{Region: nvm.RegionCounter, Index: page, Block: line.Data})
		}
	}

	var ctBlk [BlockBytes]byte
	b.eng.EncryptTo(ctBlk[:], data[:], idx, ctr)
	side := nvm.Sideband{ECC: ecc.EncodeBlock(data[:]), MAC: b.eng.DataMAC(idx, ctr, data[:]), Phase: uint8(ctr)}
	b.pending = append(b.pending, nvm.PendingWrite{Region: nvm.RegionData, Index: b.wl.phys(idx), Block: ctBlk, HasSide: true, Side: side})

	// Deferred tree update: remember the page and journal the change.
	// Old pins the epoch-start content (sticky across the window: a
	// later note for the same page refreshes only New), so the stale
	// root register plus the journal always describe a recoverable
	// state, under every crash model.
	b.epochDirty[page] = struct{}{}
	b.pending = append(b.pending, nvm.PendingWrite{JOp: nvm.JournalNote, JKey: page, JOld: epochStart, Block: line.Data})

	b.now += b.cfg.HashNS // pipelined encrypt+MAC engine occupancy
	b.dev.Attr().Add(obs.CompCrypto, b.cfg.HashNS)
	b.commitPending()
	b.now = b.wl.recordWrite(b.now)

	b.epochWrites++
	if b.epochWrites >= b.cfg.EpochRequests {
		return b.closeEpoch()
	}
	return nil
}

// closeEpoch drains the coalescing buffer: every dirty ancestor of the
// window's written pages is recomputed exactly once, persisted per the
// scheme's policy, and the fresh root register plus the journal clear
// retire the window in one atomic commit group. Safe to call with an
// empty window.
//
// The walk keeps cache pressure bounded: dirty children are processed
// in sorted order, so each parent's dirty children are contiguous and
// only one parent line is held at a time.
func (b *Bonsai) closeEpoch() error {
	b.epochWrites = 0
	if len(b.epochDirty) == 0 {
		return nil
	}
	start := b.now

	pages := b.epochPages[:0]
	for p := range b.epochDirty {
		pages = append(pages, p)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	b.epochPages = pages

	hashes := b.epochHash[:0]
	for _, p := range pages {
		line, err := b.getCounterBlock(p)
		if err != nil {
			return err
		}
		hashes = append(hashes, b.eng.ContentHash(line.Data[:]))
	}
	b.epochHash = hashes

	b.pending = b.pending[:0]
	var treeWrites []nvm.PendingWrite
	nodes := 0
	idxs := pages
	for level := 0; level < b.geom.Levels(); level++ {
		b.now += b.cfg.HashNS // one pipelined hash pass per level
		b.dev.Attr().Add(obs.CompCrypto, b.cfg.HashNS)
		var parents []uint64
		var parentHashes []uint64
		for i := 0; i < len(idxs); {
			nodeIdx := idxs[i] / merkle.Arity
			line, err := b.getTreeNode(level, nodeIdx)
			if err != nil {
				return err
			}
			gn := merkle.GNode(line.Data)
			for ; i < len(idxs) && idxs[i]/merkle.Arity == nodeIdx; i++ {
				gn.SetHash(int(idxs[i]%merkle.Arity), hashes[i])
			}
			line.Data = gn
			nodes++
			flat := b.geom.Flat(level, nodeIdx)
			if b.cfg.Scheme == SchemeStrict || (b.cfg.Scheme == SchemeTriad && level < b.cfg.TriadLevels) {
				b.stats.StrictWrites++
				treeWrites = append(treeWrites, nvm.PendingWrite{Region: nvm.RegionTree, Index: flat, Block: line.Data})
				if b.cfg.Scheme == SchemeTriad {
					b.tCache.MarkDirty(flat)
				}
			} else {
				firstDirty := b.tCache.MarkDirty(flat)
				if firstDirty && b.cfg.Scheme == SchemeAGITPlus {
					b.shadowTreeSlot(line.Slot(), flat)
				}
			}
			parents = append(parents, nodeIdx)
			parentHashes = append(parentHashes, b.eng.ContentHash(line.Data[:]))
		}
		idxs, hashes = parents, parentHashes
	}
	b.rootHash = hashes[0]

	// Drain-window placement: order the coalesced node writes so the
	// banks that free up earliest drain first (nvm.Device.EarliestBankFree
	// over singleton bank sets; deterministic, ties broken by bank then
	// node index).
	if len(treeWrites) > 1 {
		banks := b.dev.Timing().Banks
		free := make([]uint64, banks)
		order := make([]int, banks)
		for i := 0; i < banks; i++ {
			bank := i
			free[i] = b.dev.EarliestBankFree(func(x int) bool { return x == bank })
			order[i] = i
		}
		sort.SliceStable(order, func(i, j int) bool {
			if free[order[i]] != free[order[j]] {
				return free[order[i]] < free[order[j]]
			}
			return order[i] < order[j]
		})
		rank := make([]int, banks)
		for r, bank := range order {
			rank[bank] = r
		}
		sort.SliceStable(treeWrites, func(i, j int) bool {
			bi := b.dev.BankOf(nvm.RegionTree, treeWrites[i].Index)
			bj := b.dev.BankOf(nvm.RegionTree, treeWrites[j].Index)
			if bi != bj {
				return rank[bi] < rank[bj]
			}
			return treeWrites[i].Index < treeWrites[j].Index
		})
	}
	b.pending = append(b.pending, treeWrites...)

	var rootBlk [BlockBytes]byte
	putU64(rootBlk[:], b.rootHash)
	b.pending = append(b.pending, nvm.PendingWrite{RegName: regBonsaiRoot, Block: rootBlk})
	b.pending = append(b.pending, nvm.PendingWrite{JOp: nvm.JournalClear})
	b.commitPending()

	for p := range b.epochDirty {
		delete(b.epochDirty, p)
	}
	if b.probe != nil {
		b.probe.Event(obs.EvEpochClose, start, b.now, uint64(nodes))
	}
	return nil
}

// FlushEpoch closes any open epoch window, draining the deferred tree
// updates. A no-op for legacy configs, empty windows, and crashed
// controllers. The harness calls it at end-of-run so the reported
// state and timings cover the whole workload.
func (b *Bonsai) FlushEpoch() error {
	if b.crashed || b.cfg.EpochRequests <= 1 {
		return nil
	}
	return b.closeEpoch()
}
