// Package record defines the fundamental value types shared by every
// component of the multiversion store: keys, timestamps, version records,
// key×time rectangles, and the binary page codec used to persist nodes on
// the simulated magnetic and write-once devices.
//
// The types here correspond directly to the vocabulary of Lomet & Salzberg,
// "Access Methods for Multiversion Data" (SIGMOD 1989): a record version is
// a <key, timestamp, data> triple from a rollback database (timestamps are
// transaction commit times, data is stepwise constant), and an index entry
// describes a node responsible for a key range over a time interval.
package record

import (
	"bytes"
	"fmt"
	"math"
)

// Timestamp is a transaction commit time. The database is a rollback
// database in the sense of Snodgrass & Ahn: versions are stamped with the
// commit time of the transaction that wrote them, and times assigned to a
// key's versions are strictly increasing.
type Timestamp uint64

const (
	// TimeZero is the origin of time; no committed version carries it.
	TimeZero Timestamp = 0
	// TimeInfinity is the open upper bound of a time interval that is
	// still growing (a current node's rectangle, or a current index
	// entry). No committed version carries it.
	TimeInfinity Timestamp = math.MaxUint64
	// TimePending marks a version written by a transaction that has not
	// yet committed. Pending versions sort after every committed version
	// of the same key, are invisible to read-only transactions, and are
	// never migrated to the historical database (paper §4), so they can
	// always be erased if the transaction aborts.
	TimePending Timestamp = math.MaxUint64 - 1
)

// IsCommitted reports whether t is a real commit time (as opposed to the
// pending sentinel or infinity).
func (t Timestamp) IsCommitted() bool { return t > TimeZero && t < TimePending }

// String renders the timestamp; sentinels print symbolically.
func (t Timestamp) String() string {
	switch t {
	case TimeInfinity:
		return "∞"
	case TimePending:
		return "pending"
	default:
		return fmt.Sprintf("%d", uint64(t))
	}
}

// Key is a byte-string key ordered lexicographically. The empty key is the
// smallest key ("minus infinity" in the paper's root entries).
type Key []byte

// Compare returns -1, 0, or +1 comparing k with other lexicographically.
func (k Key) Compare(other Key) int { return bytes.Compare(k, other) }

// Less reports whether k sorts strictly before other.
func (k Key) Less(other Key) bool { return bytes.Compare(k, other) < 0 }

// Equal reports whether the two keys are byte-wise identical.
func (k Key) Equal(other Key) bool { return bytes.Equal(k, other) }

// Successor returns the smallest key strictly greater than k: k followed
// by a zero byte. It is the resume key for exclusive-low pagination
// ("everything after the last row I saw").
func (k Key) Successor() Key {
	out := make(Key, len(k)+1)
	copy(out, k)
	return out
}

// Clone returns an independent copy of the key.
func (k Key) Clone() Key {
	if k == nil {
		return nil
	}
	out := make(Key, len(k))
	copy(out, k)
	return out
}

// String renders the key for debugging; printable keys are shown verbatim.
func (k Key) String() string {
	if len(k) == 0 {
		return "-inf"
	}
	for _, b := range k {
		if b < 0x20 || b > 0x7e {
			return fmt.Sprintf("%x", []byte(k))
		}
	}
	return string(k)
}

// Uint64Key encodes v as an 8-byte big-endian key so that numeric order
// matches lexicographic order.
func Uint64Key(v uint64) Key {
	k := make(Key, 8)
	for i := 7; i >= 0; i-- {
		k[i] = byte(v)
		v >>= 8
	}
	return k
}

// KeyUint64 decodes a key produced by Uint64Key.
func KeyUint64(k Key) uint64 {
	var v uint64
	for _, b := range k {
		v = v<<8 | uint64(b)
	}
	return v
}

// StringKey converts a string to a Key.
func StringKey(s string) Key { return Key(s) }

// Bound is a key-space bound: either a concrete key or +infinity. The zero
// value is the empty key, i.e. the smallest possible bound.
type Bound struct {
	key Key
	inf bool
}

// KeyBound returns a finite bound at k.
func KeyBound(k Key) Bound { return Bound{key: k} }

// InfiniteBound returns the +infinity bound that closes the key space.
func InfiniteBound() Bound { return Bound{inf: true} }

// IsInfinite reports whether b is +infinity.
func (b Bound) IsInfinite() bool { return b.inf }

// Key returns the bound's key; it must not be called on +infinity.
func (b Bound) Key() Key {
	if b.inf {
		panic("record: Key() on infinite bound")
	}
	return b.key
}

// CompareKey compares the bound with a concrete key: -1 if the bound sorts
// before k, 0 if equal, +1 if after. +infinity sorts after every key.
func (b Bound) CompareKey(k Key) int {
	if b.inf {
		return 1
	}
	return bytes.Compare(b.key, k)
}

// Compare orders two bounds.
func (b Bound) Compare(other Bound) int {
	switch {
	case b.inf && other.inf:
		return 0
	case b.inf:
		return 1
	case other.inf:
		return -1
	default:
		return bytes.Compare(b.key, other.key)
	}
}

// String renders the bound.
func (b Bound) String() string {
	if b.inf {
		return "+inf"
	}
	return b.key.String()
}

// Rect is a half-open rectangle in key×time space:
// keys in [LowKey, HighKey), times in [Start, End). A current node's
// rectangle has End == TimeInfinity; a node spanning the whole key space
// has LowKey == empty and HighKey == +infinity.
//
// The paper derives these ranges implicitly from the split history of each
// node; we store them explicitly (§3.4-3.5 define the node rectangles). The
// §3.5 Index Node Keyspace Split Rule speaks directly in terms of the
// "upper bound" and "lower bound" of each entry's key range, so the
// information content is identical.
type Rect struct {
	LowKey  Key
	HighKey Bound
	Start   Timestamp
	End     Timestamp
}

// WholeSpace returns the rectangle covering every key at every time.
func WholeSpace() Rect {
	return Rect{LowKey: nil, HighKey: InfiniteBound(), Start: TimeZero, End: TimeInfinity}
}

// Contains reports whether the point (k, t) lies inside the rectangle.
// Pending versions are treated as living at the current (open) end of time:
// they are inside any rectangle whose End is infinite.
func (r Rect) Contains(k Key, t Timestamp) bool {
	if bytes.Compare(k, r.LowKey) < 0 {
		return false
	}
	if r.HighKey.CompareKey(k) <= 0 {
		return false
	}
	if t == TimePending {
		return r.End == TimeInfinity
	}
	return t >= r.Start && t < r.End
}

// ContainsKey reports whether k lies inside the key range, ignoring time.
func (r Rect) ContainsKey(k Key) bool {
	return bytes.Compare(k, r.LowKey) >= 0 && r.HighKey.CompareKey(k) > 0
}

// ContainsTime reports whether t lies inside the time interval.
func (r Rect) ContainsTime(t Timestamp) bool {
	if t == TimePending {
		return r.End == TimeInfinity
	}
	return t >= r.Start && t < r.End
}

// OverlapsKeyRange reports whether the key interval [low, high) intersects
// the rectangle's key range. A nil high bound means +infinity... callers
// pass a Bound so there is no ambiguity.
func (r Rect) OverlapsKeyRange(low Key, high Bound) bool {
	// r.LowKey < high and low < r.HighKey
	if high.CompareKey(r.LowKey) <= 0 {
		return false
	}
	return r.HighKey.CompareKey(low) > 0
}

// SplitAtKey cuts the rectangle at key s, returning the left ([LowKey, s))
// and right ([s, HighKey)) halves. s must lie strictly inside the key range.
func (r Rect) SplitAtKey(s Key) (left, right Rect) {
	if !r.ContainsKey(s) || s.Equal(r.LowKey) {
		panic(fmt.Sprintf("record: split key %s outside rect %s", s, r))
	}
	left = r
	left.HighKey = KeyBound(s.Clone())
	right = r
	right.LowKey = s.Clone()
	return left, right
}

// SplitAtTime cuts the rectangle at time t, returning the older ([Start, t))
// and newer ([t, End)) halves. t must lie strictly inside the time interval.
func (r Rect) SplitAtTime(t Timestamp) (older, newer Rect) {
	if t <= r.Start || t >= r.End {
		panic(fmt.Sprintf("record: split time %v outside rect %s", t, r))
	}
	older = r
	older.End = t
	newer = r
	newer.Start = t
	return older, newer
}

// Intersect returns the intersection of two rectangles and whether it is
// non-empty.
func (r Rect) Intersect(other Rect) (Rect, bool) {
	out := r
	if bytes.Compare(other.LowKey, out.LowKey) > 0 {
		out.LowKey = other.LowKey
	}
	if other.HighKey.Compare(out.HighKey) < 0 {
		out.HighKey = other.HighKey
	}
	if other.Start > out.Start {
		out.Start = other.Start
	}
	if other.End < out.End {
		out.End = other.End
	}
	if out.HighKey.CompareKey(out.LowKey) <= 0 || out.End <= out.Start {
		return Rect{}, false
	}
	return out, true
}

// Equal reports whether two rectangles are identical.
func (r Rect) Equal(other Rect) bool {
	return r.LowKey.Equal(other.LowKey) &&
		r.HighKey.Compare(other.HighKey) == 0 &&
		r.Start == other.Start && r.End == other.End
}

// IsCurrent reports whether the rectangle is open-ended in time, i.e.
// describes a node of the current database.
func (r Rect) IsCurrent() bool { return r.End == TimeInfinity }

// String renders the rectangle as [low,high)x[start,end).
func (r Rect) String() string {
	return fmt.Sprintf("[%s,%s)x[%s,%s)", r.LowKey, r.HighKey, r.Start, r.End)
}

// Version is one version of one record: the unit stored in leaf nodes.
// Updates never overwrite: they insert a new Version with a later Time and
// the same Key (paper §2.1). A delete inserts a Tombstone version so the
// history remains complete under the non-deletion policy.
type Version struct {
	Key       Key
	Time      Timestamp // commit time, or TimePending if uncommitted
	TxnID     uint64    // issuing transaction; 0 once committed data is consolidated
	Tombstone bool
	Value     []byte
}

// IsPending reports whether the version was written by a transaction that
// has not committed.
func (v Version) IsPending() bool { return v.Time == TimePending }

// Clone returns a deep copy of the version.
func (v Version) Clone() Version {
	out := v
	out.Key = v.Key.Clone()
	if v.Value != nil {
		out.Value = append([]byte(nil), v.Value...)
	}
	return out
}

// String renders the version for figures and debugging.
func (v Version) String() string {
	val := string(v.Value)
	if v.Tombstone {
		val = "<deleted>"
	}
	return fmt.Sprintf("%s %s T=%s", v.Key, val, v.Time)
}

// Before orders versions by (key, time) with pending versions last within
// a key. This is the canonical leaf ordering of current TSB nodes.
func (v Version) Before(other Version) bool {
	if c := v.Key.Compare(other.Key); c != 0 {
		return c < 0
	}
	return v.Time < other.Time
}
