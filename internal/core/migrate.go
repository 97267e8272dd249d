package core

// Background time-split migration: the TSB-tree's key cost asymmetry is
// that a time split writes the historical half of a node to the (slow,
// write-once) WORM device, while a key split only rewrites magnetic
// pages. Inline, that WORM append runs on the inserting goroutine under
// the shard's write latch. This file lets the owner of the tree defer it:
//
//	mark    — Insert, instead of time splitting, records (page, T) in
//	          t.pending, appends a PendingSplit ticket, and lets the
//	          incoming version land in the (now logically overfull) leaf,
//	          as long as it still fits the physical page;
//	capture — CaptureSplit partitions the leaf at the recorded T and
//	          encodes the historical half (read latch only, no writes);
//	burn    — BurnCapture appends the encoded node to the WORM with NO
//	          tree latch held: the devices are safe for concurrent use,
//	          and a burned-but-unreferenced node is inert;
//	swap    — ApplySplit re-verifies the capture under the write latch
//	          (epoch fast path, byte comparison otherwise) and installs
//	          the split through the ordinary splitNode machinery, so the
//	          post-swap tree is byte-identical to what an inline split of
//	          the same leaf at the same T would have produced.
//
// Why the capture stays valid: the historical half at time T is the set
// of committed versions with time < T, and T was chosen <= the tree's
// clock at mark time. Committed timestamps only move forward (validate
// enforces v.Time >= t.now; CommitKey enforces commitTime >= t.now), and
// pending versions never partition into the historical half, so no
// concurrent Insert/CommitKey/AbortKey can ever add or remove a version
// with committed time < T. The only event that invalidates a capture is a
// competing split of the same leaf — which deletes the t.pending entry,
// making the staleness detectable. The byte comparison in ApplySplit (and
// again in timeSplitLeafWith) is the authoritative check; the epoch is
// only a fast path that skips re-encoding when the leaf was not rewritten
// at all.
//
// Latching contract (enforced by the caller, normally internal/db's
// per-shard migrator): CaptureSplit and the Pop/Take accessors under at
// least a read latch (Take* mutate and need the write latch), BurnCapture
// under no latch, ApplySplit under the write latch.

import (
	"errors"
	"fmt"

	"repro/internal/record"
	"repro/internal/storage"
)

// pendingMark is the tree-side state of one queued background time split.
type pendingMark struct {
	T      record.Timestamp // split time fixed when the leaf was marked
	forced bool             // the mark originated from §3.5's forced-split optimization
	epoch  uint64           // bumped by every writeCurrent of the leaf
}

// PendingSplit is the ticket handed to the background migrator: "leaf
// page Page wants a time split at T". Tickets are hints — the
// authoritative state is the tree's pending map, so a stale ticket
// (the leaf was split inline meanwhile) is detected and skipped at
// capture time without burning anything.
type PendingSplit struct {
	Page uint64
	T    record.Timestamp
}

// SplitCapture is the off-latch payload of one background migration: the
// encoded historical half of a marked leaf, ready to burn, plus what
// ApplySplit needs to verify the burn still matches the leaf.
type SplitCapture struct {
	page     uint64
	T        record.Timestamp
	forced   bool
	epoch    uint64
	lowKey   record.Key
	histData []byte
	histVers int
}

// HistBytes returns the encoded size of the captured historical node.
func (c *SplitCapture) HistBytes() int { return len(c.histData) }

// HistVersions returns how many versions the captured node holds.
func (c *SplitCapture) HistVersions() int { return c.histVers }

// directedSplit routes splitNode to a pre-burned historical node while
// ApplySplit descends to the marked leaf. trusted records that the
// leaf's write epoch matched the capture's, so the byte re-verification
// can be skipped.
type directedSplit struct {
	page    uint64
	T       record.Timestamp
	forced  bool
	addr    storage.Addr
	data    []byte
	trusted bool
	done    bool
}

// SetDeferTimeSplits switches Insert between splitting time-split leaves
// inline (false, the default) and queueing them for background migration
// (true). It must be called before concurrent use of the tree begins.
func (t *Tree) SetDeferTimeSplits(on bool) { t.deferSplits = on }

// TakeNewPendingSplits drains the tickets created since the last call.
// Call under the write latch, immediately after the Insert that may have
// created them.
func (t *Tree) TakeNewPendingSplits() []PendingSplit {
	ts := t.newTickets
	t.newTickets = nil
	return ts
}

// PendingSplitCount returns how many nodes are currently queued for a
// background time split.
func (t *Tree) PendingSplitCount() int { return len(t.pending) }

// SetPendingSplitLimit overrides the backpressure bound on the
// background-migration queue: once the queue holds this many nodes,
// further overflows split inline until the migrator drains. It must be
// called before concurrent use of the tree begins.
func (t *Tree) SetPendingSplitLimit(n int) {
	if n > 0 {
		t.pendingLimit = n
	}
}

// MigrationFallbacks returns how many queued leaves were split inline
// after all because they ran out of physical page headroom.
func (t *Tree) MigrationFallbacks() uint64 { return t.migFallbacks }

// SplitLatchNanos returns the cumulative time spent splitting nodes —
// work that always runs under the owning shard's write latch, whether the
// split was inline or a background swap. The background migrator's win is
// this number growing slower: the WORM append and the historical-node
// encoding no longer happen inside it.
func (t *Tree) SplitLatchNanos() uint64 { return t.splitNanos }

// deferSplit queues leaf child for a background time split instead of
// splitting it inline. It returns true when the incoming version v may
// proceed without any split: either the leaf is already queued, or the
// planned split is a time split — in both cases only as long as the
// incoming version still fits the physical page (logical overflow past
// LeafCapacity is the whole point of deferral; physical overflow forces
// the inline fallback).
//
// A committed insert landing exactly at the planned split time also
// splits inline: the Time-Split Rule's redundancy clause would see it
// as "already has a version at T" where the inline path (splitting
// before the insert) would not, and the deferred tree would diverge from
// the inline one. Through the transaction layer inserts are pending
// (untimestamped) and commit stamps land strictly after the shared
// clock, so this fallback only triggers for direct committed inserts at
// the SplitAtNow policy.
func (t *Tree) deferSplit(child *node, forced bool, v record.Version) bool {
	if child.size()+v.EncodedSize()+4 > t.mag.PageSize() {
		return false
	}
	if _, queued := t.pending[child.addr.Off]; queued {
		return true
	}
	if len(t.pending) >= t.pendingLimit {
		return false // queue backpressure: split inline until the migrator drains
	}
	T, timeSplit, _ := t.plannedTimeSplit(child, forced)
	if !timeSplit {
		return false // a key split: cheap, magnetic-only, stays inline
	}
	if v.Time.IsCommitted() && v.Time <= T {
		return false
	}
	// Only defer when the surviving current node is guaranteed to need
	// no follow-up key split, in either mode. The inline path decides
	// that follow-up before the incoming version lands; the deferred
	// swap would decide it after. Refusing the marginal cases keeps the
	// two paths byte-identical (the migration-equivalence property) and
	// keeps the deferred swap a pure time split. The incoming version
	// can only shrink later (a restamp replaces the 10-byte pending
	// timestamp), so the margin below is conservative.
	hist, cur, _ := partitionVersions(child.versions, T)
	if len(hist) == 0 {
		return false
	}
	_, curRect := child.rect.SplitAtTime(T)
	curNode := &node{rect: curRect, leaf: true, versions: cur}
	if curNode.size()+v.EncodedSize()+4+t.versionSlack() > t.cfg.LeafCapacity {
		return false
	}
	t.pending[child.addr.Off] = &pendingMark{T: T, forced: forced}
	t.newTickets = append(t.newTickets, PendingSplit{Page: child.addr.Off, T: T})
	return true
}

// deferIndexSplit queues index node n for a background time split instead
// of splitting it preemptively during Insert's descent. It returns true
// when the incoming version v may proceed through the (now logically
// overfull) index node without any split.
//
// The deferral is taken only when the planned split is a *pure* local
// time split (§3.5) AND nothing below n on the insertion path will split
// during this insert (the peek-descent guard). The guard is what keeps
// the deferred tree byte-identical to the inline one: if a descendant
// split ran first it would burn WORM runs or allocate magnetic pages in a
// different order than the inline path (which splits n before
// descending), and every address downstream would diverge. When the
// guard holds, the insert touches only one leaf's versions, so the
// node's content — and therefore the captured historical half — is
// exactly what an inline split at mark time would have produced.
func (t *Tree) deferIndexSplit(n *node, v record.Version) bool {
	if n.size()+3*t.entryCap > t.mag.PageSize() {
		return false // no physical headroom for postings from below
	}
	if _, queued := t.pending[n.addr.Off]; queued {
		return true
	}
	if len(t.pending) >= t.pendingLimit {
		return false // queue backpressure: split inline until the migrator drains
	}
	// Mirror splitIndex's decision: defer only a wanted, legal local time
	// split. Key splits are cheap, magnetic-only, and stay inline (and the
	// blocked-time-split case must run inline so markBlockingChildren
	// fires).
	magCount := 0
	var minMagStart record.Timestamp = record.TimeInfinity
	for _, e := range n.entries {
		if e.isCurrent() {
			magCount++
			if e.rect.Start < minMagStart {
				minMagStart = e.rect.Start
			}
		}
	}
	canTime := minMagStart > n.rect.Start && anyEntryBefore(n, minMagStart)
	wantTime := float64(magCount)/float64(len(n.entries)) <= t.policy.IndexKeySplitFraction
	if !wantTime || !canTime {
		return false
	}
	if quiet, err := t.subtreeQuiet(n, v); err != nil || !quiet {
		return false
	}
	t.pending[n.addr.Off] = &pendingMark{T: minMagStart}
	t.newTickets = append(t.newTickets, PendingSplit{Page: n.addr.Off, T: minMagStart})
	return true
}

// subtreeQuiet reports whether inserting v strictly below index node n
// would split nothing on the way down: every node on the path absorbs
// the insert (or a descendant's postings) without overflowing, and no
// leaf on it awaits a forced split. It is the peek-descent guard of
// deferIndexSplit and performs only reads.
func (t *Tree) subtreeQuiet(n *node, v record.Version) (bool, error) {
	vSize := v.EncodedSize()
	for !n.leaf {
		idx := findCurrentEntry(n, v.Key)
		if idx < 0 {
			return false, nil
		}
		child, err := t.readNode(n.entries[idx].child)
		if err != nil {
			return false, err
		}
		if child.leaf {
			if t.marked[child.addr.Off] && hasCommitted(child) {
				return false, nil
			}
			if child.size()+vSize+4 > t.cfg.LeafCapacity {
				return false, nil
			}
		} else if child.size()+3*t.entryCap > t.cfg.IndexCapacity {
			return false, nil
		}
		n = child
	}
	return true, nil
}

// CaptureSplit reads the queued leaf and encodes its historical half at
// the split time recorded when it was marked. Call under at least a read
// latch. ok is false when the ticket is stale (the leaf was split some
// other way meanwhile) — nothing was burned, so a stale ticket costs no
// write-once capacity.
func (t *Tree) CaptureSplit(ps PendingSplit) (c *SplitCapture, ok bool, err error) {
	mk, queued := t.pending[ps.Page]
	if !queued {
		return nil, false, nil
	}
	n, err := t.readNode(storage.Addr{Kind: storage.KindMagnetic, Off: ps.Page})
	if err != nil {
		return nil, false, err
	}
	if !n.leaf {
		// Index-node ticket: capture the historical half of the §3.5
		// local time split. A half containing a current (magnetic) entry
		// means a concurrent split below posted a child whose interval
		// reaches under T — the capture is stale, and burning it would
		// violate the WORM's no-current-references invariant.
		hist, _, _ := partitionEntries(n.entries, mk.T)
		if len(hist) == 0 {
			return nil, false, nil
		}
		for _, e := range hist {
			if e.isCurrent() {
				return nil, false, nil
			}
		}
		histRect, _ := n.rect.SplitAtTime(mk.T)
		histNode := &node{rect: histRect, leaf: false, entries: hist}
		return &SplitCapture{
			page:     ps.Page,
			T:        mk.T,
			forced:   mk.forced,
			epoch:    mk.epoch,
			lowKey:   n.rect.LowKey.Clone(),
			histData: encodeNode(histNode),
		}, true, nil
	}
	hist, _, _ := partitionVersions(n.versions, mk.T)
	if len(hist) == 0 {
		// Cannot happen while the mark is live (see the package comment);
		// treat it as stale rather than burning an empty node.
		return nil, false, nil
	}
	histRect, _ := n.rect.SplitAtTime(mk.T)
	histNode := &node{rect: histRect, leaf: true, versions: hist}
	return &SplitCapture{
		page:     ps.Page,
		T:        mk.T,
		forced:   mk.forced,
		epoch:    mk.epoch,
		lowKey:   n.rect.LowKey.Clone(),
		histData: encodeNode(histNode),
		histVers: len(hist),
	}, true, nil
}

// BurnCapture appends the captured historical node to the WORM device and
// returns its address. It touches no tree state — only the device, which
// is safe for concurrent use — so it is the one migration step designed
// to run with NO latch held. Tree-level accounting for the burn happens
// later, under the write latch, when ApplySplit installs the node.
//
//tsb:io
func (t *Tree) BurnCapture(c *SplitCapture) (storage.Addr, error) {
	return t.worm.Append(c.histData)
}

// ApplySplit installs a burned historical node: under the write latch it
// checks the mark is still live, then descends from the root exactly as
// Insert would — splitting any full ancestor on the way — and swaps the
// leaf through splitNode. The epoch/re-dirty check runs at the swap
// itself: if the leaf was never rewritten since the capture, the burn is
// installed as-is; if it was re-dirtied (concurrent inserts or commit
// stamps — which land strictly at or after the split time, changing only
// the current half), the burn is re-verified byte for byte against the
// leaf's recomputed historical half, so those writes are never lost and
// a mismatch can only abandon the burn, never corrupt the tree.
// applied=false means the capture lost its race (the leaf was split
// inline after all): the burned node is unreferenced WORM waste, exactly
// as a torn migration on real write-once media would be.
//
//tsb:io -- re-splitting a full ancestor on the descent can burn inline
func (t *Tree) ApplySplit(c *SplitCapture, histAddr storage.Addr) (applied bool, err error) {
	mk, queued := t.pending[c.page]
	if !queued || mk.T != c.T {
		return false, nil
	}
	t.directed = &directedSplit{
		page: c.page, T: c.T, forced: c.forced, addr: histAddr,
		data: c.histData, trusted: mk.epoch == c.epoch,
	}
	defer func() { t.directed = nil }()
	if err := t.applyDirected(c.lowKey, c.page); err != nil {
		if errors.Is(err, errBurnMismatch) {
			// Defensive: drop the mark and abandon the burn; the next
			// insert re-decides the split from scratch.
			return false, nil
		}
		return false, err
	}
	return t.directed.done, nil
}

// applyDirected descends from the root to the queued leaf's parent —
// splitting the root or any full index node on the way, exactly as
// Insert's top-down preemptive splitting does — and splits the leaf
// (splitNode consumes t.directed and installs the pre-burned node).
func (t *Tree) applyDirected(k record.Key, page uint64) error {
	for {
		root, err := t.readNode(t.root)
		if err != nil {
			return err
		}
		if root.leaf {
			if root.addr.Off != page {
				return fmt.Errorf("core: directed split target %d is not the root leaf %d", page, root.addr.Off)
			}
			// Height-1 tree: the queued leaf IS the root; splitting it
			// grows the tree by one level.
			return t.splitRoot()
		}
		if root.addr.Off == page {
			// The queued index node IS the root; splitting it grows the
			// tree by one level, exactly as the inline preemptive path
			// would have.
			return t.splitRoot()
		}
		if root.size()+3*t.entryCap <= t.cfg.IndexCapacity {
			break
		}
		if err := t.splitRoot(); err != nil {
			return err
		}
	}
	n, err := t.readNode(t.root)
	if err != nil {
		return err
	}
	for {
		idx := findCurrentEntry(n, k)
		if idx < 0 {
			return fmt.Errorf("core: directed split lost current entry for key %s", k)
		}
		child, err := t.readNode(n.entries[idx].child)
		if err != nil {
			return err
		}
		if child.leaf {
			if child.addr.Off != page {
				return fmt.Errorf("core: directed split target %d routed to leaf %d", page, child.addr.Off)
			}
			return t.splitChild(n, idx, false)
		}
		if child.addr.Off == page {
			// The queued index node itself: split it here (splitNode
			// consumes t.directed and installs the pre-burned half).
			return t.splitChild(n, idx, false)
		}
		// Make room in the index child before descending, mirroring
		// Insert: a split's postings must always fit the parent.
		if child.size()+3*t.entryCap > t.cfg.IndexCapacity {
			if err := t.splitChild(n, idx, false); err != nil {
				return err
			}
			if idx = findCurrentEntry(n, k); idx < 0 {
				return fmt.Errorf("core: directed split lost current entry for key %s after split", k)
			}
			if child, err = t.readNode(n.entries[idx].child); err != nil {
				return err
			}
		}
		n = child
	}
}
