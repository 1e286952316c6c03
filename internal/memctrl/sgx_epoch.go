package memctrl

// ASIT under the bank-parallel epoch pipeline.
//
// The legacy ASIT write path refreshes the shadow table's volatile
// protection tree eagerly: every shadowMeta call rehashes the full path
// above the modified ST slot and stages a new SHADOW_TREE_ROOT, once
// per request (and once more per parent refresh during evictions). The
// epoch pipeline defers those path updates into a per-window dirty-slot
// set: the ST entry itself still persists atomically with the write it
// describes, but the tree above it is recomputed once per epoch, each
// dirty node rehashed a single time however many entries below it
// changed, and one root register write retires the whole window.
//
// Crash safety mirrors the Bonsai pipeline (bonsai_epoch.go): while the
// window is open, SHADOW_TREE_ROOT still anchors the epoch-start table.
// Every deferred ST update therefore journals its block (Old = content
// at first epoch touch, the state the stale register covers; New = the
// authoritative latest entry) inside the same commit group. Recovery
// runs two passes over the journal: pass A substitutes Old to verify
// the stale register, pass B replays New — trusted on-chip, so valid
// even when the media copy is torn — and anchors the fresh root (see
// recoverASIT).
//
// The other SGX schemes have no deferred state: WriteBack and Osiris
// never touch a persistent root per write, and Strict's whole point is
// eager per-write propagation. They behave identically at every epoch
// size, and cfg.EpochRequests <= 1 keeps ASIT on the legacy eager path,
// byte-identical to pre-epoch builds.

import (
	"sort"

	"anubis/internal/merkle"
	"anubis/internal/nvm"
	"anubis/internal/obs"
)

// closeEpoch drains the window: the protection-tree path of every dirty
// shadow-table slot is recomputed with one coalesced hash pass per
// level, and the fresh SHADOW_TREE_ROOT plus the journal clear retire
// the window in one atomic commit group. Safe to call on an empty
// window. Pure on-chip work — the ST blocks themselves were persisted
// when their entries were written.
func (c *SGX) closeEpoch() error {
	c.epochWrites = 0
	if len(c.epochSlots) == 0 {
		return nil
	}
	start := c.now

	slots := c.epochOrder[:0]
	for s := range c.epochSlots {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	c.epochOrder = slots

	hashes := c.epochHash[:0]
	for _, s := range slots {
		hashes = append(hashes, c.eng.ContentHash(blockSlice(c.st.Block(int(s)))))
	}
	c.epochHash = hashes

	// Sorted children keep each level's dirty parents contiguous: one
	// pass per level, each dirty node rehashed exactly once.
	nodes := 0
	idxs := slots
	for level := 0; level < c.stGeom.Levels(); level++ {
		c.now += c.cfg.HashNS // one pipelined hash pass per level
		c.dev.Attr().Add(obs.CompCrypto, c.cfg.HashNS)
		var parents []uint64
		var parentHashes []uint64
		for i := 0; i < len(idxs); {
			nodeIdx := idxs[i] / merkle.Arity
			n := &c.stNodes[level][nodeIdx]
			for ; i < len(idxs) && idxs[i]/merkle.Arity == nodeIdx; i++ {
				n.SetHash(int(idxs[i]%merkle.Arity), hashes[i])
			}
			nodes++
			parents = append(parents, nodeIdx)
			parentHashes = append(parentHashes, c.eng.ContentHash(n[:]))
		}
		idxs, hashes = parents, parentHashes
	}
	c.stRoot = hashes[0]

	c.pending = c.pending[:0]
	var reg [BlockBytes]byte
	putU64(reg[:], c.stRoot)
	c.pending = append(c.pending, nvm.PendingWrite{RegName: regShadowTreeRoot, Block: reg})
	c.pending = append(c.pending, nvm.PendingWrite{JOp: nvm.JournalClear})
	c.commitPending()

	for s := range c.epochSlots {
		delete(c.epochSlots, s)
	}
	if c.probe != nil {
		c.probe.Event(obs.EvEpochClose, start, c.now, uint64(nodes))
	}
	return nil
}

// FlushEpoch closes any open epoch window. A no-op for legacy configs,
// non-ASIT schemes, empty windows, and crashed controllers. The error
// is always nil today (the close is pure on-chip work); the signature
// matches the harness's epochFlusher contract shared with Bonsai.
func (c *SGX) FlushEpoch() error {
	if c.crashed || c.epochSlots == nil {
		return nil
	}
	return c.closeEpoch()
}
