package db

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/txn"
)

// shard is one key-range partition of the database: an independent
// TSB-tree guarded by a reader/writer latch. The latch protects the tree
// *structure* (nodes split and migrate in place); logical record locking
// is the transaction manager's job. Readers of disjoint shards never
// contend, and readers of the same shard share the latch.
type shard struct {
	mu   sync.RWMutex //tsb:latch level=5 name=shard
	tree *core.Tree

	// Latch contention instruments for the hot operations (Insert,
	// CommitKey, Get, GetAsOf): wait is acquire latency, hold is the
	// latched section. Timing is sampled — every latchSampleInterval-th
	// acquisition per shard pays the clock reads, the rest pay one
	// atomic add — and hold is observed after release, so the metric
	// update itself is latch-free and the common path stays cheap.
	tick         atomic.Uint64
	waitR, waitW obs.Histogram
	holdR, holdW obs.Histogram
}

// latchSampleShift selects the top 3 bits of the hashed tick, sampling
// exactly 1 in 8 acquisitions: enough to keep the wait/hold histograms
// statistically faithful under contention while the clock reads stay
// off seven in eight acquisitions.
const latchSampleShift = 61

// sampleLatch reports whether this acquisition is one of the timed
// 1-in-8. The tick is Fibonacci-hashed before the bit test: a plain
// tick%8 stride aliases with periodic op patterns (a put ticks the
// counter a fixed number of times, so every sample can land on the
// same acquisition site — in practice the read latch, leaving the
// write-latch histograms permanently empty). Multiplying by the odd
// constant is a bijection, so the rate stays exactly 1-in-8 while the
// sampled positions scatter across any small period.
func (sh *shard) sampleLatch() bool {
	return sh.tick.Add(1)*0x9E3779B97F4A7C15>>latchSampleShift == 0
}

// shardedStore routes operations across n key-range shards and implements
// txn.Store. Shard i owns the half-open key range
// [record.ShardBoundary(i,n), record.ShardBoundary(i+1,n)), so shard order
// equals key order and range queries merge by concatenating per-shard
// results — no interleaving is ever needed.
type shardedStore struct {
	shards []*shard
	// mig, when non-nil, receives the deferred-split tickets inserts
	// create (Config.BackgroundMigration). Set once at open time, before
	// concurrent use.
	mig *migrator
}

func newShardedStore(trees []*core.Tree) *shardedStore {
	s := &shardedStore{shards: make([]*shard, len(trees))}
	for i, t := range trees {
		s.shards[i] = &shard{tree: t}
	}
	return s
}

func (s *shardedStore) shardFor(k record.Key) *shard {
	return s.shards[record.ShardOfKey(k, len(s.shards))]
}

// shardSpan returns the inclusive shard index range a key interval
// [low, high) touches.
func (s *shardedStore) shardSpan(low record.Key, high record.Bound) (from, to int) {
	n := len(s.shards)
	from = record.ShardOfKey(low, n)
	if high.IsInfinite() {
		return from, n - 1
	}
	return from, record.ShardOfKey(high.Key(), n)
}

// Now returns the largest committed timestamp across all shards.
func (s *shardedStore) Now() record.Timestamp {
	var now record.Timestamp
	for _, sh := range s.shards {
		sh.mu.RLock()
		if t := sh.tree.Now(); t > now {
			now = t
		}
		sh.mu.RUnlock()
	}
	return now
}

func (s *shardedStore) Insert(v record.Version) error {
	i := record.ShardOfKey(v.Key, len(s.shards))
	sh := s.shards[i]
	var start, acquired time.Time
	timed := sh.sampleLatch()
	if timed {
		start = time.Now()
	}
	sh.mu.Lock()
	if timed {
		acquired = time.Now()
	}
	//tsb:allow latchio -- inline burn fallback: when the migrator queue is saturated (or migration is off) the time split burns under the latch by design
	err := sh.tree.Insert(v)
	var tickets []core.PendingSplit
	if s.mig != nil {
		// Drain tickets while still holding the write latch (the slice
		// is tree state); hand them to the worker after releasing it.
		tickets = sh.tree.TakeNewPendingSplits()
	}
	sh.mu.Unlock()
	if timed {
		sh.waitW.Observe(acquired.Sub(start))
		sh.holdW.Observe(time.Since(acquired))
	}
	if len(tickets) > 0 {
		s.mig.enqueue(i, tickets)
	}
	return err
}

func (s *shardedStore) CommitKey(k record.Key, txnID uint64, commitTime record.Timestamp) (core.Posted, error) {
	sh := s.shardFor(k)
	var start, acquired time.Time
	timed := sh.sampleLatch()
	if timed {
		start = time.Now()
	}
	sh.mu.Lock()
	if timed {
		acquired = time.Now()
	}
	p, err := sh.tree.CommitKey(k, txnID, commitTime)
	sh.mu.Unlock()
	if timed {
		sh.waitW.Observe(acquired.Sub(start))
		sh.holdW.Observe(time.Since(acquired))
	}
	return p, err
}

func (s *shardedStore) AbortKey(k record.Key, txnID uint64) error {
	sh := s.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.tree.AbortKey(k, txnID)
}

func (s *shardedStore) GetPending(k record.Key, txnID uint64) (record.Version, bool, error) {
	sh := s.shardFor(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.tree.GetPending(k, txnID)
}

func (s *shardedStore) Get(k record.Key) (record.Version, bool, error) {
	sh := s.shardFor(k)
	var start, acquired time.Time
	timed := sh.sampleLatch()
	if timed {
		start = time.Now()
	}
	sh.mu.RLock()
	if timed {
		acquired = time.Now()
	}
	v, ok, err := sh.tree.Get(k)
	sh.mu.RUnlock()
	if timed {
		sh.waitR.Observe(acquired.Sub(start))
		sh.holdR.Observe(time.Since(acquired))
	}
	return v, ok, err
}

func (s *shardedStore) GetAsOf(k record.Key, at record.Timestamp) (record.Version, bool, error) {
	sh := s.shardFor(k)
	var start, acquired time.Time
	timed := sh.sampleLatch()
	if timed {
		start = time.Now()
	}
	sh.mu.RLock()
	if timed {
		acquired = time.Now()
	}
	v, ok, err := sh.tree.GetAsOf(k, at)
	sh.mu.RUnlock()
	if timed {
		sh.waitR.Observe(acquired.Sub(start))
		sh.holdR.Observe(time.Since(acquired))
	}
	return v, ok, err
}

// ScanPageAsOf streams one latch-scoped page of the snapshot at time at
// through the shard walker.
func (s *shardedStore) ScanPageAsOf(at record.Timestamp, low record.Key, high record.Bound, reverse bool) (core.Page, error) {
	return s.walkShards(low, high, reverse, func(t *core.Tree, lo record.Key, hi record.Bound) (core.Page, error) {
		return t.ScanPageAsOf(at, lo, hi, reverse)
	})
}

// ScanRangePage streams one latch-scoped, key-paged page of a temporal
// range query through the shard walker: the window-mode twin of
// ScanPageAsOf.
func (s *shardedStore) ScanRangePage(low record.Key, high record.Bound, from, to record.Timestamp, reverse bool) (core.Page, error) {
	return s.walkShards(low, high, reverse, func(t *core.Tree, lo record.Key, hi record.Bound) (core.Page, error) {
		return t.ScanRangePage(lo, hi, from, to, reverse)
	})
}

// walkShards is the shard-order concatenating merge of every scan: it
// serves one page of [low, high) by calling page on one shard tree at a
// time (reverse shard order when reverse is set), with the window
// clamped to that shard. It read-latches exactly one shard, only for the
// duration of that call, releasing it before touching the next shard —
// the incremental latch hand-off that lets a cursor pause indefinitely
// between pages without blocking writers. An exhausted shard hands the
// window's edge to the next shard's boundary. Because the key space is
// range-partitioned in shard order, pages concatenate in key order with
// no interleaving.
func (s *shardedStore) walkShards(low record.Key, high record.Bound, reverse bool,
	page func(t *core.Tree, low record.Key, high record.Bound) (core.Page, error)) (core.Page, error) {
	n := len(s.shards)
	first, last := s.shardSpan(low, high)
	i := first
	if reverse {
		i = last
	}
	lo, hi := low, high
	for {
		shLow, shHigh := record.ShardRange(i, n)
		clampLow, clampHigh := lo, hi
		if clampLow.Compare(shLow) < 0 {
			clampLow = shLow
		}
		if shHigh.Compare(clampHigh) < 0 {
			clampHigh = shHigh
		}
		var p core.Page
		// A window edge resumed at this shard's boundary leaves the
		// window inside it empty: step on without a latched descent.
		if clampHigh.IsInfinite() || clampHigh.CompareKey(clampLow) > 0 {
			sh := s.shards[i]
			sh.mu.RLock()
			var err error
			p, err = page(sh.tree, clampLow, clampHigh)
			sh.mu.RUnlock()
			if err != nil {
				return core.Page{}, fmt.Errorf("db: shard %d: %w", i, err)
			}
		}
		if p.More || reverse && i <= first || !reverse && i >= last {
			return p, nil
		}
		// This shard is exhausted: hand the window edge to the next
		// shard's boundary.
		if reverse {
			i--
			hi = record.KeyBound(shLow)
		} else {
			i++
			lo = record.ShardBoundary(i, n)
		}
		if len(p.Versions) > 0 {
			p.NextLow, p.NextHigh, p.More = lo, hi, true
			return p, nil
		}
	}
}

// registerMetrics names each shard's latch-contention histograms in r,
// one (shard, mode) series pair per histogram.
func (s *shardedStore) registerMetrics(r *obs.Registry) {
	for i, sh := range s.shards {
		latch := obs.Label{Key: "latch", Value: "shard"}
		id := obs.Label{Key: "shard", Value: strconv.Itoa(i)}
		rd := obs.Label{Key: "mode", Value: "read"}
		wr := obs.Label{Key: "mode", Value: "write"}
		r.RegisterHistogram("tsb_latch_wait_seconds", "shard latch acquire latency (1-in-8 sampled)", &sh.waitR, latch, id, rd)
		r.RegisterHistogram("tsb_latch_wait_seconds", "shard latch acquire latency (1-in-8 sampled)", &sh.waitW, latch, id, wr)
		r.RegisterHistogram("tsb_latch_hold_seconds", "shard latch hold duration (1-in-8 sampled)", &sh.holdR, latch, id, rd)
		r.RegisterHistogram("tsb_latch_hold_seconds", "shard latch hold duration (1-in-8 sampled)", &sh.holdW, latch, id, wr)
	}
}

// migrationCounters aggregates the per-tree migration measurements that
// live outside core.Stats: split-under-latch time, inline fallbacks, and
// currently-marked leaves.
func (s *shardedStore) migrationCounters() (splitLatchNanos, fallbacks uint64, pending int) {
	for _, sh := range s.shards {
		sh.mu.RLock()
		splitLatchNanos += sh.tree.SplitLatchNanos()
		fallbacks += sh.tree.MigrationFallbacks()
		pending += sh.tree.PendingSplitCount()
		sh.mu.RUnlock()
	}
	return splitLatchNanos, fallbacks, pending
}

// stats aggregates the structural counters of every shard tree.
func (s *shardedStore) stats() core.Stats {
	var agg core.Stats
	for _, sh := range s.shards {
		sh.mu.RLock()
		agg = agg.Merge(sh.tree.Stats())
		sh.mu.RUnlock()
	}
	return agg
}

// checkInvariants verifies every shard tree and that every key a shard
// holds routes back to it.
func (s *shardedStore) checkInvariants() error {
	n := len(s.shards)
	for i, sh := range s.shards {
		sh.mu.RLock()
		err := sh.tree.CheckInvariants()
		if err == nil && n > 1 {
			low, high := record.ShardRange(i, n)
			var vs []record.Version
			vs, err = sh.tree.ScanRange(nil, record.InfiniteBound(), record.TimeZero+1, record.TimeInfinity)
			for _, v := range vs {
				if err != nil {
					break
				}
				if v.Key.Less(low) || high.CompareKey(v.Key) <= 0 {
					err = fmt.Errorf("key %s outside shard range [%s,%s)", v.Key, low, high)
				}
			}
		}
		sh.mu.RUnlock()
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

var _ txn.Store = (*shardedStore)(nil)
