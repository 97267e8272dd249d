package core

import (
	"fmt"

	"repro/internal/record"
)

// Insert adds a version to the tree. Committed versions must carry
// timestamps no earlier than any previously committed timestamp (rollback
// databases append in commit-time order). Pending versions (Time ==
// record.TimePending) must carry the writing transaction's id; a second
// pending write of the same key by the same transaction replaces the first.
//
// Nodes on the insertion path that are too full to absorb the incoming
// data — or the postings of a descendant's split — are split top-down
// before descent, so a split's postings always fit in the (erasable)
// parent.
//
//tsb:io -- a time split can burn the historical half inline
func (t *Tree) Insert(v record.Version) error {
	if err := t.validate(v); err != nil {
		return err
	}
	if v.Time.IsCommitted() && v.Time > t.now {
		t.now = v.Time
	}
	vSize := v.EncodedSize()

	// Make sure the root itself has room for the insertion or for the
	// postings of a child split. The root read last is where the descent
	// starts.
	var n *node
	for {
		root, err := t.readNode(t.root)
		if err != nil {
			return err
		}
		n = root
		var limit, need int
		if root.leaf {
			limit, need = t.cfg.LeafCapacity, vSize+4
		} else {
			limit, need = t.cfg.IndexCapacity, 3*t.entryCap
		}
		if root.size()+need <= limit {
			break
		}
		if root.leaf && t.deferSplits && t.deferSplit(root, false, v) {
			// Background migration: the root leaf is queued for a time
			// split; the insert lands in the logically-overfull leaf.
			break
		}
		if !root.leaf && t.deferSplits && t.deferIndexSplit(root, v) {
			// Background migration: the root index node is queued for a
			// local time split; the insert descends through it.
			break
		}
		if err := t.splitRoot(); err != nil {
			return err
		}
	}

	for !n.leaf {
		idx := findCurrentEntry(n, v.Key)
		if idx < 0 {
			return fmt.Errorf("core: no current entry for key %s in node %s (invariant violation)", v.Key, n.addr)
		}
		child, err := t.readNode(n.entries[idx].child)
		if err != nil {
			return err
		}
		forced := child.leaf && t.marked[child.addr.Off] && hasCommitted(child)
		needSplit := forced
		if child.leaf {
			if child.size()+vSize+4 > t.cfg.LeafCapacity {
				needSplit = true
			}
		} else if child.size()+3*t.entryCap > t.cfg.IndexCapacity {
			needSplit = true
		}
		if needSplit && child.leaf && t.deferSplits && t.deferSplit(child, forced, v) {
			// Background migration: instead of time splitting here —
			// burning the historical half to the WORM while holding the
			// shard's write latch — the leaf is queued for the migrator
			// and the insert proceeds into the logically-overfull leaf.
			// Key splits (and any leaf out of physical page headroom)
			// still split inline.
			needSplit = false
		}
		if needSplit && !child.leaf && t.deferSplits && t.deferIndexSplit(child, v) {
			// Same deferral for an overfull index child whose planned
			// split is a pure local time split and whose subtree absorbs
			// this insert without splitting (see deferIndexSplit).
			needSplit = false
		}
		if needSplit {
			if err := t.splitChild(n, idx, forced); err != nil {
				return err
			}
			if idx = findCurrentEntry(n, v.Key); idx < 0 {
				return fmt.Errorf("core: lost current entry for key %s after split", v.Key)
			}
			if child, err = t.readNode(n.entries[idx].child); err != nil {
				return err
			}
		}
		n = child
	}

	if v.IsPending() {
		// Replace an earlier pending write of the same key by the
		// same transaction; reject a conflicting one (the lock layer
		// should have prevented it).
		for i, old := range n.versions {
			if old.IsPending() && old.Key.Equal(v.Key) {
				if old.TxnID != v.TxnID {
					return fmt.Errorf("core: key %s has a pending version of transaction %d", v.Key, old.TxnID)
				}
				n.versions[i] = v
				return t.writeCurrent(n)
			}
		}
	} else {
		// A key has at most one version per commit time: versions of
		// a key are strictly ordered in a rollback database.
		for _, old := range n.versions {
			if !old.IsPending() && old.Time == v.Time && old.Key.Equal(v.Key) {
				return fmt.Errorf("core: key %s already has a version at time %s", v.Key, v.Time)
			}
		}
	}
	n.versions = append(n.versions, v)
	sortVersions(n.versions)
	if err := t.writeCurrent(n); err != nil {
		return err
	}
	t.stats.Inserts++
	if v.Tombstone {
		t.stats.Deletes++
	}
	return nil
}

// hasCommitted reports whether the leaf holds at least one committed
// version (a node of only pending data cannot be split at all).
func hasCommitted(n *node) bool {
	for _, v := range n.versions {
		if !v.IsPending() {
			return true
		}
	}
	return false
}

// currentLeaf descends to the current leaf responsible for key k.
func (t *Tree) currentLeaf(k record.Key) (*node, error) {
	n, err := t.readNode(t.root)
	if err != nil {
		return nil, err
	}
	for !n.leaf {
		idx := findCurrentEntry(n, k)
		if idx < 0 {
			return nil, fmt.Errorf("core: no current entry for key %s in node %s", k, n.addr)
		}
		if n, err = t.readNode(n.entries[idx].child); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// Posted is what CommitKey read from the current leaf it stamped: the
// key's prior committed version and the version just committed.
type Posted struct {
	// Old is the latest committed version before the stamp, as Get
	// would have returned it: OldOK is false when there is none or it
	// is a tombstone. Clause 3 of the Time-Split Rule keeps the version
	// alive now in the current leaf, so the leaf being stamped holds it.
	Old   record.Version
	OldOK bool
	// New is the stamped version, tombstones included.
	New record.Version
}

// CommitKey stamps the pending version of key k written by transaction
// txnID with its commit time. Records of uncommitted transactions have no
// timestamps; the commit time is posted when the transaction commits (§4),
// in the current leaf that already holds them — one visit, which also
// yields the key's prior committed version.
func (t *Tree) CommitKey(k record.Key, txnID uint64, commitTime record.Timestamp) (Posted, error) {
	if !commitTime.IsCommitted() {
		return Posted{}, fmt.Errorf("core: invalid commit time %s", commitTime)
	}
	if commitTime < t.now {
		return Posted{}, fmt.Errorf("core: commit time %s before current time %s", commitTime, t.now)
	}
	n, err := t.currentLeaf(k)
	if err != nil {
		return Posted{}, err
	}
	for i, v := range n.versions {
		if v.IsPending() && v.Key.Equal(k) && v.TxnID == txnID {
			var p Posted
			p.Old, p.OldOK = latestAtOrBefore(n, k, record.TimeInfinity)
			p.OldOK = p.OldOK && !p.Old.Tombstone
			n.versions[i].Time = commitTime
			p.New = n.versions[i]
			sortVersions(n.versions)
			if err := t.writeCurrent(n); err != nil {
				return Posted{}, err
			}
			t.now = commitTime
			t.stats.Restamps++
			return p, nil
		}
	}
	return Posted{}, fmt.Errorf("%w: key %s, transaction %d", ErrNoPending, k, txnID)
}

// AbortKey erases the pending version of key k written by transaction
// txnID. Erasing is possible precisely because uncommitted data is never
// migrated to the write-once historical database (§4).
func (t *Tree) AbortKey(k record.Key, txnID uint64) error {
	n, err := t.currentLeaf(k)
	if err != nil {
		return err
	}
	for i, v := range n.versions {
		if v.IsPending() && v.Key.Equal(k) && v.TxnID == txnID {
			n.versions = append(n.versions[:i], n.versions[i+1:]...)
			return t.writeCurrent(n)
		}
	}
	return fmt.Errorf("%w: key %s, transaction %d", ErrNoPending, k, txnID)
}
