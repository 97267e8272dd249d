package core

import (
	"slices"
	"sort"

	"repro/internal/record"
	"repro/internal/storage"
)

// ScanRange returns every committed version that was valid at some moment
// in the half-open time window [from, to) for keys in [low, high): the
// general temporal range query over the rollback database. The result
// contains, per key, the version alive at `from` (if any) plus every
// version committed inside the window, sorted by (key, time). Tombstones
// are included — a caller reconstructing an interval needs to know when a
// record stopped existing.
//
// This is the natural composition of the paper's query set (§2.5: version
// by key and time, snapshots, all versions of a record); it exercises the
// clustering property the Time-Split Rule's redundancy buys: versions
// valid at the same time sit in few nodes.
func (t *Tree) ScanRange(low record.Key, high record.Bound, from, to record.Timestamp) ([]record.Version, error) {
	if to <= from {
		return nil, nil
	}
	type slot struct {
		versions map[record.Timestamp]record.Version
		alive    record.Version // latest version with Time < from
		hasAlive bool
	}
	byKey := make(map[string]*slot)
	get := func(k record.Key) *slot {
		s, ok := byKey[string(k)]
		if !ok {
			s = &slot{versions: make(map[record.Timestamp]record.Version)}
			byKey[string(k)] = s
		}
		return s
	}

	window := record.Rect{LowKey: low, HighKey: high, Start: from, End: to}
	var visit func(addr storage.Addr, clip record.Rect) error
	visit = func(addr storage.Addr, clip record.Rect) error {
		n, err := t.readNode(addr)
		if err != nil {
			return err
		}
		if !n.leaf {
			for _, e := range n.entries {
				sub, ok := e.rect.Intersect(clip)
				if !ok {
					continue
				}
				if _, overlaps := sub.Intersect(window); !overlaps {
					continue
				}
				if err := visit(e.child, sub); err != nil {
					return err
				}
			}
			return nil
		}
		for _, v := range n.versions {
			if v.IsPending() || !clip.ContainsKey(v.Key) {
				continue
			}
			if v.Key.Compare(low) < 0 || high.CompareKey(v.Key) <= 0 {
				continue
			}
			switch {
			case v.Time >= to:
				// after the window
			case v.Time >= from:
				get(v.Key).versions[v.Time] = v
			default:
				// Candidate for "alive at window start". Only
				// trust it if this leaf actually covers the
				// instant `from` for this key — otherwise an
				// older slice could offer a stale version.
				if clip.Contains(v.Key, from) {
					s := get(v.Key)
					if !s.hasAlive || v.Time > s.alive.Time {
						s.alive = v
						s.hasAlive = true
					}
				}
			}
		}
		return nil
	}
	if err := visit(t.root, record.WholeSpace()); err != nil {
		return nil, err
	}

	var out []record.Version
	for _, s := range byKey {
		// A version committed at exactly `from` supersedes the alive
		// candidate: the candidate was not valid inside the window.
		if _, atFrom := s.versions[from]; s.hasAlive && !atFrom && !s.alive.Tombstone {
			out = append(out, s.alive)
		}
		for _, v := range s.versions {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out, nil
}

// HistoryRange returns the versions of key k committed in [from, to),
// preceded by the version alive at `from` if one exists — the single-key
// form of ScanRange.
func (t *Tree) HistoryRange(k record.Key, from, to record.Timestamp) ([]record.Version, error) {
	return t.ScanRange(k, record.KeyBound(append(k.Clone(), 0)), from, to)
}

// ScanRangePage returns one key-paged batch of the temporal range query:
// the ScanRange result restricted to the keys owned by the single current
// leaf responsible for the window edge (low forward, the high edge in
// reverse), found by one root-to-leaf descent. The page's NextLow (or
// NextHigh in reverse) shrinks the window for the following call — the
// ScanPageAsOf resume contract — so repeated calls enumerate
// ScanRange(low, high, from, to) exactly once, in (key, time) order
// (descending when reverse), with bounded work per call: the time-window
// pushdown that lets a window cursor stream in either direction under
// incremental latch hand-offs.
//
// Pages are split on the *current* key partition (the slabs alive at
// TimePending partition the key space and are the most finely key-split
// slices of the tree), so one page covers at most one current leaf's
// key range, however many historical versions those keys accumulated.
func (t *Tree) ScanRangePage(low record.Key, high record.Bound, from, to record.Timestamp, reverse bool) (Page, error) {
	if to <= from {
		return Page{}, nil
	}
	n, clip, err := t.descendPage(record.TimePending, low, high, reverse)
	if err != nil {
		return Page{}, err
	}
	var p Page
	pageLow, pageHigh := low, high
	if n != nil {
		p = pageEdge(clip, low, high, reverse)
		if p.More && reverse {
			pageLow = clip.LowKey
		} else if p.More {
			pageHigh = record.KeyBound(p.NextLow)
		}
	}
	// n == nil (no current slab covers the edge) is defensive — the
	// current slabs partition the key space: the page is the remainder.
	vs, err := t.ScanRange(pageLow, pageHigh, from, to)
	if err != nil {
		return Page{}, err
	}
	if reverse {
		slices.Reverse(vs)
	}
	p.Versions = vs
	return p, nil
}
