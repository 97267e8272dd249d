// Package db is the public face of the reproduction: a multiversion,
// timestamped database engine with a non-deletion policy, backed by
// Time-Split B-trees over a simulated magnetic disk (current data) and a
// simulated write-once optical disk (historical data), with transactions,
// read-only queries that take no logical locks, and secondary indexes —
// the complete system of Lomet & Salzberg, SIGMOD 1989.
//
// # Sharding and concurrency
//
// The key space is range-partitioned across Config.Shards independent
// TSB-trees (shard order equals key order, so range queries concatenate
// per-shard results). The concurrency guarantees, precisely:
//
//   - Read-only transactions take no logical record locks and never wait
//     for a lock (§4.1). Obtaining a snapshot timestamp (ReadOnly/ReadAt)
//     is a wait-free atomic clock read.
//   - Reads are NOT wait-free end to end: each per-shard tree structure
//     is protected by a reader/writer latch, so a read briefly shares a
//     shard latch and can wait for an in-progress page split on that one
//     shard. Readers never block readers, and never touch shards outside
//     their key range.
//   - Updaters claim keys in a no-wait lock table (conflicts fail fast
//     with txn.ErrLockConflict) and write pending versions under the
//     owning shard's write latch. Commit posting is serialized by a
//     group-commit leadership token: concurrently-arriving committers
//     coalesce into one batch — consecutive commit timestamps, one
//     commit-log append + fsync (durable mode), one clock advance — so
//     commit timestamps reach every shard in order and the shared clock
//     advances only after a batch is fully posted; any snapshot at
//     time <= Now() is consistent.
//   - Secondary indexes are maintained during commit posting and guarded
//     by their own reader/writer latch.
//
// # Durability
//
// With Config.Dir set, the database is durable: the two storage devices
// are disk files in that directory (internal/pagestore) — a mutable page
// file with a per-page CRC for the magnetic disk, an append-only burn
// file of CRC-guarded sectors for the WORM — next to a write-ahead log
// (internal/wal) and a checkpoint. The contract, precisely:
//
//   - Committed = logged + fsynced. Update/Commit return only after the
//     transaction's redo record (its stamped write set) is durable in
//     the log. Group commit amortizes the fsync: committers arriving
//     while the batch leader fsyncs join the next batch, so N
//     concurrent committers cost far fewer than N fsyncs
//     (Stats().WAL's Records/Syncs is the measured factor).
//   - A crash loses nothing acknowledged. Open(Config{Dir: ...})
//     reattaches the device files at the latest checkpoint and replays
//     the log tail, stopping at the first torn frame. An
//     unacknowledged commit (in flight at the crash) is recovered
//     either fully or not at all — a log frame is exactly one
//     transaction under a CRC.
//   - What a checkpoint flushes: the buffer pool runs writeback with a
//     dirty-page table (strictly no-steal — a dirty page is never
//     evicted, never written outside a checkpoint), and a checkpoint
//     writes exactly the dirty pages — O(dirty), not O(database) —
//     through a rollback journal (old contents fsynced before any slot
//     is overwritten), then fsyncs both device files, then installs a
//     metadata-only checkpoint: tree roots, page allocator, WORM burned
//     boundary, and the page-consistent WAL boundary. The flush
//     pre-runs shard by shard with commits flowing; only the boundary
//     capture itself (memory copies, no I/O) briefly holds the commit
//     token plus one shard latch at a time. DB.Checkpoint and the
//     background checkpointer (Config.CheckpointBytes) then delete the
//     log segments the checkpoint covers.
//   - What recovery trusts: page CRCs (verified on every read), the
//     rollback journal (a torn flush restores the previous boundary
//     image before anything reads it), the burn file up to the
//     checkpointed boundary (fsynced), and the WAL tail. The unsynced
//     WORM tail is verified sector by sector and clipped at the first
//     torn frame; intact orphan burns stay as dead waste, as they would
//     on real write-once media. Pending versions of transactions in
//     flight at the boundary are erased from the image (the checkpoint
//     records their write locks), then the WAL tail replays — so
//     recovery reads the checkpoint metadata plus O(log tail), never
//     the whole database.
//
// # Background migration
//
// With Config.BackgroundMigration, time-split migration leaves the
// insert path: an insert that would time split a leaf marks it and
// returns fast, and a per-shard worker later captures the historical
// half under a short read latch, burns it to the write-once device with
// NO latch held, and swaps the rewritten leaf in under a short write
// latch. The consistency contract, precisely:
//
//   - No version is ever unreachable, at any instant: the swap goes
//     through the same split machinery an inline split uses, atomically
//     under the shard's write latch, so a reader sees the pre-swap or
//     the post-swap node — never a torn one.
//   - Concurrent writes into a marked leaf are never lost: they land
//     under the write latch and partition into the current half at swap
//     time (commit timestamps always exceed the chosen split time); a
//     leaf rewritten since its capture is re-verified byte for byte
//     before the burn is trusted (the epoch/re-dirty check).
//   - A lost race (the leaf ran out of physical page headroom and split
//     inline first) abandons the burned node as unreferenced write-once
//     waste — Stats().Migrator.Abandoned — never links it in. Abandoned
//     payload counts as waste, not payload, in Stats().Device
//     (WastedBytes/DeadBytes), and in a durable database DB.Compact
//     reclaims it: the database does not age badly under lost races.
//   - Checkpoints fence the workers around the boundary, so page
//     captures stay boundary-exact. Marks are not durable:
//     a crash drops them and future inserts re-create them.
//   - Close finishes the in-flight migration and drops the queue (a
//     marked-but-unsplit leaf is a valid tree); DrainMigrations flushes
//     the queue synchronously first when every historical node must
//     reach the write-once device.
//
// Inline splitting (BackgroundMigration unset) remains the default and
// the recovery-replay behavior; no split-policy knob is inline-only —
// core.Policy applies identically in both modes, and the background
// path defers exactly the splits the policy would have performed. See
// docs/ARCHITECTURE.md for the migration state machine and its
// admissible interleavings.
//
// # Streaming reads
//
// Range reads are cursors: Cursor (and the iter.Seq2 form, Range) yields
// a snapshot lazily, page by page, with ScanOptions{Limit, Reverse,
// After, At, From, To} for pagination, descending order, per-scan time
// travel, and temporal windows. Every cursor is a sequence of one of two
// page primitives of the shard router, ScanPageAsOf (snapshot) and
// ScanRangePage (window), in either direction. The latch contract,
// precisely: a cursor holds NO latch between Next calls. Each Next
// read-latches at most one shard, for the duration of a single page —
// one root-to-leaf descent to one leaf's visible versions (snapshot
// cursors) or to one current leaf's key range over the time window
// (window cursors) — then releases it before returning; crossing a
// shard boundary hands the latch off to the next shard in key order.
// Consistency across all hand-offs comes from the snapshot timestamp,
// not from latches — versions visible at a fixed time are immutable
// under the non-deletion policy — so a paused or abandoned cursor never
// blocks a writer and a Limit=1 cursor costs O(tree height) page reads,
// not a full scan, in either direction and either mode.
//
// The read API is Get/GetAsOf for points, Cursor/Range for scans, and
// Query/QueryAt for composed reads (internal/query): history, diffs, and
// secondary-index fetches are query specs (query.History, query.Diff,
// Spec.JoinSecondary). History is query.History(k) collected.
//
// Typical use:
//
//	d, _ := db.Open(db.Config{Shards: 8})
//	d.Update(func(tx *txn.Txn) error { return tx.Put(k, v) })
//	v, ok, _ := d.Get(k)              // current version
//	v, ok, _ = d.GetAsOf(k, t)        // rollback query
//	snap := d.ReadOnly()              // snapshot reader, no logical locks
//
//	// First page of the snapshot, two rows at a time:
//	cur := snap.Cursor(low, high, db.ScanOptions{Limit: 2})
//	for cur.Next() {
//		use(cur.Version())
//	}
//	// Next page, strictly after the last key seen, iterator form:
//	for v, err := range snap.Range(low, high, db.ScanOptions{After: lastKey, Limit: 2}) {
//		...
//	}
package db

import (
	"fmt"
	"iter"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pagestore"
	"repro/internal/record"
	"repro/internal/secondary"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Config configures a database.
type Config struct {
	// Shards is the number of key-range partitions, each an independent
	// TSB-tree with its own latch (default 1, max record.MaxShards).
	// Shard boundaries are fixed at open time by record.ShardBoundary.
	Shards int
	// PageSize is the magnetic page size in bytes (default 4096).
	PageSize int
	// SectorSize is the WORM sector size in bytes (default 1024, the
	// paper's "typically about one kilobyte").
	SectorSize int
	// BufferPages is the page-cache capacity shared by all shards.
	// 0 selects the default of 256; NoCachePages (-1, or any negative
	// value) disables caching entirely so every page read reaches the
	// simulated device.
	BufferPages int
	// Policy is the TSB-tree splitting policy (default PolicyLastUpdate,
	// the paper's refinement).
	Policy core.Policy
	// Cost is the simulated latency model (default DefaultCostModel).
	// In-memory databases only: a Dir database's devices are files.
	Cost *storage.CostModel
	// PlatterSectors/Drives enable the optical-library model (0 = one
	// always-mounted disk). In-memory databases only, like Cost.
	PlatterSectors uint64
	Drives         int
	// MaxKeySize / MaxValueSize bound record sizes (see core.Config).
	MaxKeySize   int
	MaxValueSize int
	// LeafCapacity / IndexCapacity override logical node sizes (tests).
	LeafCapacity  int
	IndexCapacity int

	// Dir makes the database durable: the directory holds the magnetic
	// and WORM devices as files (internal/pagestore), the write-ahead
	// log, and the checkpoint. Open creates it if needed, or recovers
	// the database it finds there (device reattachment + WAL tail
	// replay). With Dir set, a commit is acknowledged only once its redo
	// record is fsynced — group commit batches concurrent committers into
	// one fsync — and a checkpoint flushes only the dirty pages. Requires
	// the buffer pool (BufferPages must not be NoCachePages): its
	// dirty-page table is what a checkpoint flushes. See the package
	// documentation's durability contract.
	Dir string
	// Deprecated: every Dir database is paged; setting this without Dir is an error.
	PagedDevices bool
	// BackgroundMigration moves time-split migration off the insert
	// path: an insert that would time split a leaf (burning its
	// historical half to the slow write-once device while holding the
	// shard's write latch) instead marks the leaf and returns fast, and
	// a per-shard background worker later captures the historical half
	// under a short read latch, burns it with NO latch held, and swaps
	// the rewritten leaf in under a short write latch. Readers always
	// see the pre- or post-swap node, never a torn one, and no version
	// is ever unreachable — see Stats().Migrator and the package
	// documentation's migration contract. Deferral needs physical page
	// headroom: with LeafCapacity equal to PageSize (the default) a
	// logically-overfull leaf has nowhere to grow and splits inline, so
	// set LeafCapacity below PageSize to give the migrator room.
	// Works for in-memory and durable databases; recovery replay
	// always splits inline (marks are not durable state).
	BackgroundMigration bool
	// CheckpointBytes triggers a background incremental checkpoint
	// (which truncates the log) once the WAL has grown by this many
	// bytes since the last one. 0 selects the 4 MiB default; negative
	// disables background checkpointing (DB.Checkpoint still works).
	// Durable mode only.
	CheckpointBytes int64
	// CompactDeadBytes triggers a background WORM compaction (see
	// DB.Compact) once the payload of unreferenced write-once runs —
	// Stats().Device.DeadBytes: abandoned background migrations, crash
	// orphans — exceeds this many bytes. 0 disables background
	// compaction (DB.Compact still works). Durable mode only.
	CompactDeadBytes int64
	// SlowOpThreshold is the duration at or above which a completed
	// background span (checkpoint, compaction round, migration) is
	// copied into the slow-op ring of the event log (DB.Events). 0
	// selects the 25ms default; negative disables the slow-op ring (the
	// main event ring still records everything).
	SlowOpThreshold time.Duration
	// Secondaries registers secondary indexes at open time, equivalent
	// to calling CreateSecondary for each before any writes. Reopening
	// a durable database that had secondary indexes REQUIRES the same
	// set here: extraction functions are code, not data, and recovery
	// replays them.
	Secondaries map[string]SecondaryExtract

	// logWrap wraps every log and checkpoint file the durable mode
	// opens; crash tests inject torn-write faults through it.
	logWrap func(storage.LogFile) storage.LogFile
	// blockWrap wraps the durable mode's device files (page file, burn
	// file, rollback journal); crash tests inject torn positioned
	// writes through it.
	blockWrap func(storage.BlockFile) storage.BlockFile
}

// NoCachePages is the Config.BufferPages value that disables the page
// cache (0 means "default capacity", so disabling needs its own
// sentinel).
const NoCachePages = -1

// SecondaryExtract derives the secondary key from a record value. A nil
// return means the record has no entry in that index.
type SecondaryExtract func(value []byte) record.Key

type secondaryIndex struct {
	index   *secondary.Index
	extract SecondaryExtract
}

// DB is a multiversion database instance. All public methods are safe for
// concurrent use; see the package documentation for what is latched and
// what is wait-free.
type DB struct {
	mag   storage.PageDevice
	pool  *buffer.Pool
	worm  storage.WORMDevice
	store *shardedStore
	tm    *txn.Manager

	// Durable-mode devices (nil in memory): the same objects as
	// mag/worm, concretely typed for the checkpoint flush protocol.
	pf *pagestore.PageFile
	bf *pagestore.BurnFile
	// epoch is the installed checkpoint epoch; secTag the flush
	// group of the secondary indexes (shard i uses group i).
	epoch  uint64
	secTag int

	// mig is the background time-split migrator
	// (Config.BackgroundMigration); nil when migration is inline.
	mig *migrator

	// deadBytes is the payload carried by write-once runs nothing
	// references — abandoned background migrations, post-crash orphans —
	// i.e. capacity the device counters still report as payload but that
	// no read path can ever reach. Carried across reopens in the v4
	// checkpoint (wal.PagedMeta.DeadBytes), folded into
	// Stats().Device.WastedBytes, zeroed by a completed compaction.
	deadBytes atomic.Uint64
	// Maintenance accounting, atomic because Stats() reads it without
	// cpMu: checkpoint pause tracking (quiesceTimed) and compaction
	// counters (Compact). See CheckpointStats / CompactionStats.
	cpCount, cpPauseNanos, cpLastPause, cpMaxPause                   atomic.Uint64
	coRounds, coAborted, coRunsMoved, coMovedBytes, coReclaimedBytes atomic.Uint64
	coPauseNanos                                                     atomic.Uint64
	// coEvery is the background compaction trigger: a maintenance tick
	// compacts once deadBytes exceeds it (<=0 disables).
	coEvery int64

	// reg names every component's instruments for exposition; events is
	// the background-job span log. Built by wireObs on every open path,
	// so both are always non-nil on a DB the package returned.
	reg    *obs.Registry
	events *obs.EventLog
	// Migration phase histograms (capture/burn/swap latch regimes). They
	// live on the DB, not the migrator, so the series exist — at zero —
	// even when migration is inline or off.
	migCapture, migBurn, migSwap obs.Histogram
	// Whole-job duration histograms for the maintenance spans.
	cpHist obs.Histogram
	coHist obs.Histogram

	// secMu latches the secondary indexes: write-held while commit
	// posting applies index maintenance, read-held by lookups.
	secMu       sync.RWMutex //tsb:latch level=6 name=secondary
	secondaries map[string]*secondaryIndex

	policy      core.Policy
	bufferPages int

	// Durable-mode state (nil/zero for in-memory databases).
	wal     *wal.Log
	dir     string
	dirLock *os.File // exclusive flock on dir/LOCK, held until Close
	logWrap func(storage.LogFile) storage.LogFile
	// cpMu serializes checkpoints (manual and background). The WAL
	// itself anchors the "bytes since last checkpoint" gauge
	// (wal.Log.MarkCheckpoint / Stats().WAL.BacklogBytes).
	cpMu    sync.Mutex //tsb:latch level=1 name=checkpoint
	cpEvery int64      // background trigger; <=0 disabled
	cpErr   error      // sticky first background-checkpoint error (under cpMu)
	stopCp  chan struct{}
	cpDone  sync.WaitGroup
	closed  bool
}

func (cfg *Config) withDefaults() error {
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Shards < 1 || cfg.Shards > record.MaxShards {
		return fmt.Errorf("db: Shards %d outside [1,%d]", cfg.Shards, record.MaxShards)
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = 4096
	}
	if cfg.SectorSize == 0 {
		cfg.SectorSize = 1024
	}
	if cfg.BufferPages == 0 {
		cfg.BufferPages = 256
	}
	if cfg.BufferPages < 0 {
		cfg.BufferPages = NoCachePages
	}
	if (cfg.Policy == core.Policy{}) {
		cfg.Policy = core.PolicyLastUpdate
	}
	if cfg.PagedDevices && cfg.Dir == "" {
		return fmt.Errorf("db: PagedDevices requires Dir")
	}
	if cfg.Dir != "" && cfg.BufferPages == NoCachePages {
		return fmt.Errorf("db: Dir requires the buffer pool (BufferPages must not be NoCachePages)")
	}
	return nil
}

// Open creates a new database on fresh simulated devices — or, when
// cfg.Dir is set, opens the durable database in that directory,
// recovering whatever a previous process left there: the device files
// are reattached at the latest checkpoint and the WAL tail replayed
// over them, yielding exactly the acknowledged commits (see the package
// documentation's durability contract).
func Open(cfg Config) (*DB, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	if cfg.Dir != "" {
		return openDurable(cfg)
	}
	cost := storage.DefaultCostModel()
	if cfg.Cost != nil {
		cost = *cfg.Cost
	}

	d := &DB{
		secondaries: make(map[string]*secondaryIndex),
		policy:      cfg.Policy,
		bufferPages: cfg.BufferPages,
	}
	d.mag = storage.NewMagneticDisk(cfg.PageSize, cost)
	d.worm = storage.NewWORMDisk(storage.WORMConfig{
		SectorSize:     cfg.SectorSize,
		Cost:           cost,
		PlatterSectors: cfg.PlatterSectors,
		Drives:         cfg.Drives,
	})
	pages := d.pages()
	trees := make([]*core.Tree, cfg.Shards)
	for i := range trees {
		tree, err := core.New(pages, d.worm, core.Config{
			Policy:        cfg.Policy,
			MaxKeySize:    cfg.MaxKeySize,
			MaxValueSize:  cfg.MaxValueSize,
			LeafCapacity:  cfg.LeafCapacity,
			IndexCapacity: cfg.IndexCapacity,
		})
		if err != nil {
			return nil, err
		}
		trees[i] = tree
	}
	d.store = newShardedStore(trees)
	for name, extract := range cfg.Secondaries {
		if err := d.CreateSecondary(name, extract); err != nil {
			return nil, err
		}
	}
	d.tm = txn.NewManager(d.store, d.store.Now())
	d.tm.SetCommitHook(d.onCommit)
	d.wireObs(cfg)
	if cfg.BackgroundMigration {
		d.startMigrator()
	}
	return d, nil
}

// defaultSlowOpThreshold is the slow-op ring threshold when
// Config.SlowOpThreshold is 0.
const defaultSlowOpThreshold = 25 * time.Millisecond

// wireObs builds the metric registry and event log and names every
// component's instruments in them. Called once per open path (Open,
// openDurable) after the transaction manager exists.
// Instruments are component-owned struct fields that record from birth;
// registration only names them for exposition, so nothing here is on a
// hot path and order relative to first use does not matter.
func (d *DB) wireObs(cfg Config) {
	d.reg = obs.NewRegistry()
	thresh := cfg.SlowOpThreshold
	if thresh == 0 {
		thresh = defaultSlowOpThreshold
	}
	if thresh < 0 {
		thresh = 0
	}
	d.events = obs.NewEventLog(1024, thresh)
	d.store.registerMetrics(d.reg)
	d.tm.RegisterMetrics(d.reg)
	if d.pool != nil {
		d.pool.RegisterMetrics(d.reg)
	}
	if d.wal != nil {
		d.wal.RegisterMetrics(d.reg)
	}
	if d.pf != nil {
		d.pf.RegisterMetrics(d.reg)
	}
	if d.bf != nil {
		d.bf.RegisterMetrics(d.reg)
	}
	// Migration phase series exist in every mode (zero when migration is
	// inline or off), so dashboards and scrape checks need no flag
	// coordination with Config.BackgroundMigration.
	phases := []struct {
		name string
		h    *obs.Histogram
	}{{"capture", &d.migCapture}, {"burn", &d.migBurn}, {"swap", &d.migSwap}}
	for _, p := range phases {
		d.reg.RegisterHistogram("tsb_migrator_phase_seconds",
			"background time-split migration phase duration (capture: read latch; burn: no latch; swap: write latch)",
			p.h, obs.Label{Key: "phase", Value: p.name})
	}
	d.reg.GaugeFunc("tsb_migrator_queue_depth", "deferred-split tickets queued", func() float64 {
		return float64(d.mig.statsSnapshot().QueueDepth)
	})
	d.reg.RegisterHistogram("tsb_checkpoint_seconds", "whole-checkpoint duration, quiesce windows included", &d.cpHist)
	d.reg.RegisterHistogram("tsb_compaction_seconds", "WORM compaction round duration", &d.coHist)
}

// Metrics returns the database's metric registry: every engine
// instrument — commit latency, fsync latency, shard latch contention,
// buffer hit rates, device latency, migration phases — named for
// exposition (obs.WritePrometheus / WriteJSON). Always non-nil.
func (d *DB) Metrics() *obs.Registry { return d.reg }

// Events returns the background-job event log: completed checkpoint,
// compaction, and migration spans, with a slow-op ring past
// Config.SlowOpThreshold. Always non-nil.
func (d *DB) Events() *obs.EventLog { return d.events }

// pages returns the page store the trees share: the buffer pool when
// caching is enabled, the raw device otherwise.
func (d *DB) pages() storage.PageStore {
	if d.bufferPages > 0 {
		if d.pool == nil {
			d.pool = buffer.NewPool(d.mag, d.bufferPages)
		}
		return d.pool
	}
	return d.mag
}

// secondaryPages returns the page store a secondary index's tree writes
// through: in a durable database the pool view tagged with the
// secondary flush group, so checkpoints can pre-flush the indexes as
// their own batch.
func (d *DB) secondaryPages() storage.PageStore {
	if d.pf != nil {
		return d.pool.Tagged(d.secTag)
	}
	return d.pages()
}

// CreateSecondary registers a secondary index maintained from commit time
// onward. It must be called before any data is written. On a durable
// database the registration is sealed into a fresh checkpoint
// immediately, so reopening the directory always knows the index exists
// (and demands its extractor via Config.Secondaries).
func (d *DB) CreateSecondary(name string, extract SecondaryExtract) error {
	if d.store.stats().Inserts > 0 {
		return fmt.Errorf("db: secondary index %q must be created before any writes", name)
	}
	d.secMu.Lock()
	if _, dup := d.secondaries[name]; dup {
		d.secMu.Unlock()
		return fmt.Errorf("db: secondary index %q already exists", name)
	}
	ix, err := secondary.New(name, d.secondaryPages(), d.worm, core.Config{Policy: d.policy})
	if err != nil {
		d.secMu.Unlock()
		return err
	}
	d.secondaries[name] = &secondaryIndex{index: ix, extract: extract}
	d.secMu.Unlock()
	if d.wal != nil {
		if err := d.Checkpoint(); err != nil {
			return fmt.Errorf("db: sealing secondary index %q: %w", name, err)
		}
	}
	return nil
}

// onCommit maintains the secondary indexes; it runs under the transaction
// manager's commit mutex for every committed key, write-holding the
// secondary latch.
func (d *DB) onCommit(ct record.Timestamp, oldV record.Version, oldOK bool, newV record.Version) error {
	d.secMu.Lock()
	defer d.secMu.Unlock()
	for _, s := range d.secondaries {
		var oldSkey record.Key
		hadOld := false
		if oldOK && !oldV.Tombstone {
			if sk := s.extract(oldV.Value); sk != nil {
				oldSkey = sk
				hadOld = true
			}
		}
		var newSkey record.Key
		removed := true
		if !newV.Tombstone {
			if sk := s.extract(newV.Value); sk != nil {
				newSkey = sk
				removed = false
			}
		}
		if !hadOld && removed {
			continue
		}
		//tsb:allow latchio -- secondary-tree time splits burn inline under secMu; deferring them to the migrator is an open item
		if err := s.index.Apply(ct, newV.Key, oldSkey, hadOld, newSkey, removed); err != nil {
			return err
		}
	}
	return nil
}

// Begin starts an updating transaction.
func (d *DB) Begin() *txn.Txn { return d.tm.Begin() }

// Update runs fn in a transaction, committing on success.
func (d *DB) Update(fn func(*txn.Txn) error) error { return d.tm.Update(fn) }

// ReadOnly starts a read-only transaction at the current time. It takes
// no logical locks; see the package documentation.
func (d *DB) ReadOnly() *txn.ReadTxn { return d.tm.ReadOnly() }

// ReadAt starts a read-only transaction at a past time.
func (d *DB) ReadAt(at record.Timestamp) *txn.ReadTxn { return d.tm.ReadAt(at) }

// Get returns the most recent committed version of key k.
func (d *DB) Get(k record.Key) (record.Version, bool, error) {
	return d.tm.ReadOnly().Get(k)
}

// GetAsOf returns the version of key k valid at time at.
func (d *DB) GetAsOf(k record.Key, at record.Timestamp) (record.Version, bool, error) {
	return d.tm.ReadAt(at).Get(k)
}

// ScanOptions configures a streaming read: Limit, Reverse, a pagination
// resume key (After), a per-scan snapshot time (At), or a temporal
// window (From/To). See txn.ScanOptions.
type ScanOptions = txn.ScanOptions

// Cursor is a lazy streaming read over the database. See txn.Cursor for
// the exact latch contract (none held between Next calls).
type Cursor = txn.Cursor

// Cursor opens a streaming read over keys in [low, high) at the current
// time (or as directed by opts: a past snapshot, or a temporal window),
// through a read-only transaction that takes no logical locks.
func (d *DB) Cursor(low record.Key, high record.Bound, opts ScanOptions) *Cursor {
	return d.ReadOnly().Cursor(low, high, opts)
}

// Range returns a Go iterator over the versions Cursor would yield; a
// non-nil error is yielded as the final pair.
func (d *DB) Range(low record.Key, high record.Bound, opts ScanOptions) iter.Seq2[record.Version, error] {
	return d.ReadOnly().Range(low, high, opts)
}

// Now returns the last commit timestamp.
func (d *DB) Now() record.Timestamp { return d.tm.Now() }

// LookupSecondary returns the primary keys carrying the secondary key at
// time at, using only the secondary index.
func (d *DB) LookupSecondary(name string, skey record.Key, at record.Timestamp) ([]record.Key, error) {
	d.secMu.RLock()
	defer d.secMu.RUnlock()
	s, ok := d.secondaries[name]
	if !ok {
		return nil, fmt.Errorf("db: no secondary index %q", name)
	}
	return s.index.LookupAsOf(skey, at)
}

// CountSecondary counts records carrying the secondary key at time at.
func (d *DB) CountSecondary(name string, skey record.Key, at record.Timestamp) (int, error) {
	d.secMu.RLock()
	defer d.secMu.RUnlock()
	s, ok := d.secondaries[name]
	if !ok {
		return 0, fmt.Errorf("db: no secondary index %q", name)
	}
	return s.index.CountAsOf(skey, at)
}

// DeviceStats is the two-tier storage accounting of the paper's cost
// function CS = SpaceM·CM + SpaceO·CO, derived from the device counters
// for both the simulated and the file-backed (paged) devices.
type DeviceStats struct {
	// Paged reports whether the devices are disk files (Config.Dir)
	// rather than in-memory simulations.
	Paged bool
	// SpaceM is the magnetic space consumed in bytes (pages in use ×
	// page size) — the erasable current database plus index.
	SpaceM uint64
	// SpaceO is the optical capacity consumed in bytes (sectors burned
	// × sector size); BurnedBytes is its alias in the paper's
	// burned-vs-payload framing.
	SpaceO uint64
	// PayloadBytes of SpaceO hold live data; WastedBytes is the burned
	// remainder: partial sectors plus DeadBytes. DeadBytes is the
	// payload of runs nothing references — abandoned background
	// migrations, orphaned post-crash burns — which the raw device
	// counters report as payload but which no read path can reach, so
	// here it counts as waste. Compaction (DB.Compact) reclaims it.
	PayloadBytes uint64
	WastedBytes  uint64
	DeadBytes    uint64
	// Utilization is PayloadBytes / SpaceO (1 when nothing is burned).
	Utilization float64
	// DirtyPages is the current size of the buffer pool's dirty-page
	// table — the pages the next checkpoint will flush. Always 0 for
	// in-memory databases (the pool writes through).
	DirtyPages int
}

// BurnedBytes returns SpaceO: the total write-once capacity consumed.
func (s DeviceStats) BurnedBytes() uint64 { return s.SpaceO }

// Stats aggregates the accounting of every component.
type Stats struct {
	// Tree sums the structural counters over all shard trees.
	Tree     core.Stats
	Txn      txn.Stats
	Magnetic storage.MagneticStats
	WORM     storage.WORMStats
	Buffer   buffer.Stats
	// Device condenses Magnetic/WORM/Buffer into the paper's space
	// accounting: SpaceM, SpaceO, burned vs. payload, and the
	// dirty-page count the next checkpoint will flush.
	Device DeviceStats
	// WAL is the write-ahead log accounting (zero for in-memory
	// databases). Txn.Committed / WAL.Syncs is the group-commit fsync
	// amortization.
	WAL wal.Stats
	// Migrator is the background time-split migrator's accounting:
	// queue depth, nodes migrated, bytes burned off-latch, abandoned
	// burns, and the split-under-latch time it exists to shrink
	// (SplitLatchNanos is reported for inline databases too).
	Migrator MigratorStats
	// Checkpoint is the checkpoint pause accounting: how long, in
	// total and per checkpoint, commit posting was quiesced for
	// boundary captures. The fuzzy paged capture exists to shrink it.
	Checkpoint CheckpointStats
	// Compaction is the WORM compaction accounting (DB.Compact).
	Compaction CompactionStats
	// Secondaries maps index name to its tree stats.
	Secondaries map[string]core.Stats
}

// Stats returns a snapshot of all counters.
func (d *DB) Stats() Stats {
	st := Stats{
		Tree:        d.store.stats(),
		Txn:         d.tm.Stats(),
		Magnetic:    d.mag.Stats(),
		WORM:        d.worm.Stats(),
		Secondaries: make(map[string]core.Stats),
	}
	if d.wal != nil {
		st.WAL = d.wal.Stats()
	}
	if d.pool != nil {
		st.Buffer = d.pool.Stats()
	}
	st.Migrator = d.mig.statsSnapshot()
	latchNanos, fallbacks, pending := d.store.migrationCounters()
	st.Migrator.SplitLatchNanos = latchNanos
	st.Migrator.InlineFallbacks = fallbacks
	st.Migrator.PendingNodes = pending
	st.Checkpoint = CheckpointStats{
		Checkpoints:    d.cpCount.Load(),
		PauseNanos:     d.cpPauseNanos.Load(),
		LastPauseNanos: d.cpLastPause.Load(),
		MaxPauseNanos:  d.cpMaxPause.Load(),
	}
	st.Compaction = CompactionStats{
		Rounds:         d.coRounds.Load(),
		Aborted:        d.coAborted.Load(),
		RunsMoved:      d.coRunsMoved.Load(),
		MovedBytes:     d.coMovedBytes.Load(),
		ReclaimedBytes: d.coReclaimedBytes.Load(),
		PauseNanos:     d.coPauseNanos.Load(),
	}
	// Reclassify dead payload (runs nothing references) as waste: the
	// device counters cannot know a burned run became unreachable, the
	// engine can — abandoned migrations and reopen orphans feed
	// d.deadBytes, a completed compaction zeroes it.
	dead := d.deadBytes.Load()
	worm := st.WORM
	if dead > worm.PayloadBytes {
		dead = worm.PayloadBytes
	}
	worm.PayloadBytes -= dead
	worm.WastedBytes += dead
	st.Device = DeviceStats{
		Paged:        d.pf != nil,
		SpaceM:       st.Magnetic.BytesInUse(d.mag.PageSize()),
		SpaceO:       worm.BytesBurned(d.worm.SectorSize()),
		PayloadBytes: worm.PayloadBytes,
		WastedBytes:  worm.WastedBytes,
		DeadBytes:    dead,
		Utilization:  worm.Utilization(d.worm.SectorSize()),
		DirtyPages:   st.Buffer.DirtyPages,
	}
	d.secMu.RLock()
	for name, s := range d.secondaries {
		st.Secondaries[name] = s.index.Tree().Stats()
	}
	d.secMu.RUnlock()
	return st
}

// Shards returns the number of key-range partitions.
func (d *DB) Shards() int { return len(d.store.shards) }

// WithShardTree runs fn with shard i's TSB-tree while write-holding that
// shard's latch, excluding every concurrent reader and writer of the
// shard for the duration of fn: the safe accessor for dump tools,
// invariant checks, and recovery surgery. fn must not retain the tree
// past its return.
func (d *DB) WithShardTree(i int, fn func(*core.Tree) error) error {
	if i < 0 || i >= len(d.store.shards) {
		return fmt.Errorf("db: shard %d outside [0,%d)", i, len(d.store.shards))
	}
	sh := d.store.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return fn(sh.tree)
}

// Devices exposes the storage devices for experiment accounting: the
// simulated disks of an in-memory database, or the file-backed page and
// burn stores of a durable one.
func (d *DB) Devices() (storage.PageDevice, storage.WORMDevice) { return d.mag, d.worm }

// CheckInvariants verifies every shard tree (including that each key
// routes to the shard holding it) and every secondary tree.
func (d *DB) CheckInvariants() error {
	if err := d.store.checkInvariants(); err != nil {
		return fmt.Errorf("primary: %w", err)
	}
	d.secMu.RLock()
	defer d.secMu.RUnlock()
	for name, s := range d.secondaries {
		if err := s.index.Tree().CheckInvariants(); err != nil {
			return fmt.Errorf("secondary %q: %w", name, err)
		}
	}
	return nil
}
