package txn

import (
	"sync"

	"repro/internal/core"
	"repro/internal/record"
)

// LatchedStore makes a single-goroutine Store (a bare *core.Tree) safe
// for concurrent use by wrapping every operation in a reader/writer
// latch: mutations exclusive, reads shared. The db layer's key-range
// shard router generalizes this to one latch per shard; LatchedStore is
// the single-shard degenerate case, handy for tests and tools that drive
// a Manager over one tree.
type LatchedStore struct {
	mu sync.RWMutex //tsb:latch level=5 name=store
	s  Store
}

// NewLatchedStore wraps s in a latch.
func NewLatchedStore(s Store) *LatchedStore { return &LatchedStore{s: s} }

func (l *LatchedStore) Insert(v record.Version) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	//tsb:allow latchio -- single-latch store: an inline time-split burn has no background migrator to defer to
	return l.s.Insert(v)
}

func (l *LatchedStore) CommitKey(k record.Key, txnID uint64, commitTime record.Timestamp) (core.Posted, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.s.CommitKey(k, txnID, commitTime)
}

func (l *LatchedStore) AbortKey(k record.Key, txnID uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.s.AbortKey(k, txnID)
}

func (l *LatchedStore) GetPending(k record.Key, txnID uint64) (record.Version, bool, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.s.GetPending(k, txnID)
}

func (l *LatchedStore) Get(k record.Key) (record.Version, bool, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.s.Get(k)
}

func (l *LatchedStore) GetAsOf(k record.Key, at record.Timestamp) (record.Version, bool, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.s.GetAsOf(k, at)
}

// ScanPageAsOf serves one snapshot page under a short shared latch, held
// only for the duration of this call: the single-shard form of the
// incremental latch hand-off the db layer's shard router performs.
func (l *LatchedStore) ScanPageAsOf(at record.Timestamp, low record.Key, high record.Bound, reverse bool) (core.Page, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.s.ScanPageAsOf(at, low, high, reverse)
}

// ScanRangePage serves one temporal-window page under a short shared
// latch, like ScanPageAsOf.
func (l *LatchedStore) ScanRangePage(low record.Key, high record.Bound, from, to record.Timestamp, reverse bool) (core.Page, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.s.ScanRangePage(low, high, from, to, reverse)
}

var _ Store = (*LatchedStore)(nil)
