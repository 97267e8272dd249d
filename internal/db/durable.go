package db

// The durable mode: a directory-backed database whose devices are disk
// files (paged.go), whose commits are write-ahead logged (internal/wal),
// and whose log is truncated by incremental checkpoints taken while
// writers run.
//
// The durability contract, precisely:
//
//   - committed = logged + fsynced. Update/Commit return only after the
//     transaction's redo record (its stamped write set) is durable in
//     the WAL; group commit batches concurrently-arriving committers
//     into one append + one fsync.
//   - a crash loses nothing acknowledged. Open reattaches the device
//     files at the latest checkpoint and then replays the WAL tail,
//     stopping at the first torn frame. A commit whose fsync never
//     completed is either absent or — if its frame happened to land
//     intact before the crash — present in full; never half-applied,
//     because a frame is exactly one transaction under a CRC.
//   - in-flight transactions at the crash are gone: pending versions
//     are never logged, and the ones a checkpointed page captured are
//     erased on reopen (the checkpoint records their write locks), so
//     recovery needs no undo pass.
//
// A checkpoint flushes the dirty pages and captures each shard's tree
// image at its own boundary LSN, one shard latch at a time, writers
// running throughout (paged.go has the protocol). Replay applies a
// logged version to a tree only past that tree's boundary, so reload
// plus log tail reproduces every commit exactly once, in global
// commit-time order — which the secondary indexes, one tree shared by
// all shards, require. Once the checkpoint file is fsynced and
// atomically renamed into place, segments wholly below the rotation
// point are deleted.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"repro/internal/record"
	"repro/internal/txn"
	"repro/internal/wal"
)

// ErrClosed is returned by operations on a closed durable database.
var ErrClosed = errors.New("db: database closed")

// ErrLocked is returned when the durable directory is already open —
// by another process or another handle in this one. Two writers on one
// log would interleave segments and lose acknowledged commits.
var ErrLocked = errors.New("db: directory already open")

// lockDir takes an exclusive advisory lock on dir/LOCK. The kernel
// releases it when the holder dies, so a crashed process never leaves a
// stale lock behind (which is why this is flock, not O_EXCL creation).
func lockDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("db: lock file: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("%w: %s", ErrLocked, dir)
	}
	return f, nil
}

// defaultCheckpointBytes is how much WAL growth triggers a background
// checkpoint when Config.CheckpointBytes is 0.
const defaultCheckpointBytes = 4 << 20

// openDurable opens (creating or recovering) the durable database in
// cfg.Dir. Called from Open with defaults applied.
func openDurable(cfg Config) (*DB, error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("db: create %s: %w", cfg.Dir, err)
	}
	lock, err := lockDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	var log *wal.Log
	var d *DB
	ok := false
	defer func() {
		if !ok {
			if log != nil {
				_ = log.Close()
			}
			if d != nil {
				d.closeDevices()
			}
			_ = lock.Close()
		}
	}()
	info, found, err := wal.ReadCheckpointInfo(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if found {
		if cfg.Shards != 1 && cfg.Shards != info.Shards {
			return nil, fmt.Errorf("db: %s has %d shards, config asks for %d",
				cfg.Dir, info.Shards, cfg.Shards)
		}
		cfg.Shards = info.Shards
		if err := checkExtractors(info.Secondaries, cfg.Secondaries); err != nil {
			return nil, err
		}
	}

	// The committed database is the device files themselves: openPaged
	// reattaches (or creates) them and builds the trees from the
	// checkpoint's images — no version reload.
	d, err = openPaged(cfg, info, found)
	if err != nil {
		return nil, err
	}
	lastLSN, nextSeg, err := d.replayLog(info)
	if err != nil {
		return nil, err
	}

	// The clock resumes at the newest committed time recovery produced
	// (the checkpoint clock is a lower bound of it).
	clock := d.store.Now()
	if info.Clock > clock {
		clock = info.Clock
	}
	d.tm = txn.NewManager(d.store, clock)
	d.tm.SetCommitHook(d.onCommit)

	log, err = wal.Open(wal.Options{Dir: cfg.Dir, WrapFile: cfg.logWrap}, nextSeg, lastLSN)
	if err != nil {
		return nil, err
	}
	d.wal = log
	d.tm.SetCommitLog(log)
	d.wireObs(cfg)

	if !found {
		// Seal the directory's shape before the first commit: an empty
		// checkpoint makes the shard count (and secondary-index set)
		// authoritative for every future reopen, even one that crashes
		// before its first real checkpoint.
		if err := d.Checkpoint(); err != nil {
			return nil, err
		}
	}

	d.cpEvery = cfg.CheckpointBytes
	if d.cpEvery == 0 {
		d.cpEvery = defaultCheckpointBytes
	}
	d.coEvery = cfg.CompactDeadBytes
	if d.cpEvery > 0 || d.coEvery > 0 {
		d.stopCp = make(chan struct{})
		d.cpDone.Add(1)
		go d.maintenanceLoop()
	}
	if cfg.BackgroundMigration {
		// Started only now, after recovery: replayed inserts split
		// inline (deterministically), and marks are never durable state.
		d.startMigrator()
	}
	d.dirLock = lock
	ok = true
	return d, nil
}

// checkExtractors verifies the supplied extraction functions exactly
// cover the secondary indexes a checkpoint names.
func checkExtractors(names []string, extracts map[string]SecondaryExtract) error {
	if len(extracts) != len(names) {
		return fmt.Errorf("db: directory has %d secondary indexes, %d extractors supplied",
			len(names), len(extracts))
	}
	for _, name := range names {
		if _, ok := extracts[name]; !ok {
			return fmt.Errorf("db: no extractor supplied for secondary index %q", name)
		}
	}
	return nil
}

// applyCommitted installs one committed version during recovery: the
// previously visible version is looked up first so the secondary-index
// hook sees exactly what it would have seen at the original commit.
// Versions must arrive in an order that never decreases commit times
// GLOBALLY — the secondary indexes are single trees spanning all
// shards — which the WAL's LSN order guarantees.
func (d *DB) applyCommitted(v record.Version) error {
	if len(d.secondaries) == 0 {
		// The old version is only ever needed by the secondary-index
		// hook; without one, skip the extra tree lookup per version.
		return d.store.Insert(v)
	}
	oldV, oldOK, err := d.store.Get(v.Key)
	if err != nil {
		return err
	}
	if err := d.store.Insert(v); err != nil {
		return err
	}
	return d.onCommit(v.Time, oldV, oldOK, v)
}

// replayLog replays every WAL segment after the checkpoint boundary, in
// LSN (= global commit-time) order. The fuzzy checkpoint has per-tree
// boundaries: shard i's image was captured at GroupLSNs[i] and the
// secondary indexes at SecLSN (>= every group LSN, they are captured
// last), all >= the header LSN the replay starts from — so each version applies to
// its primary shard only past that shard's boundary, and drives the
// secondary-index hook only past SecLSN. Reload + tail replay stays
// exactly-once per tree. A checkpoint without GroupLSNs captured every
// tree at the header LSN, so everything past it applies. It returns the
// last intact LSN and the segment number a fresh log should start at.
func (d *DB) replayLog(info wal.CheckpointInfo) (lastLSN, nextSeg uint64, err error) {
	var group []uint64
	secLSN := info.LSN
	if p := info.Paged; p != nil && len(p.GroupLSNs) == len(d.store.shards) {
		group = p.GroupLSNs
		secLSN = p.SecLSN
	}
	segs, err := wal.Segments(d.dir)
	if err != nil {
		return 0, 0, err
	}
	nextSeg = 1
	last := info.LSN
	for _, seg := range segs {
		if seg.Index >= nextSeg {
			nextSeg = seg.Index + 1
		}
		segLast, _, err := wal.ReplayFile(seg.Path, last, func(lsn uint64, rec txn.CommitRecord) error {
			if lsn != last+1 {
				return fmt.Errorf("db: recovery gap: LSN %d follows %d (missing segment?)", lsn, last)
			}
			last = lsn
			return d.replayCommit(lsn, rec, group, secLSN)
		})
		if err != nil {
			return 0, 0, err
		}
		if segLast > last {
			// Frames past `last` were skipped as <= the boundary; keep
			// the larger of the two as the resume point.
			last = segLast
		}
	}
	return last, nextSeg, nil
}

// replayCommit redoes one logged transaction, filtered by the fuzzy
// capture boundaries (group/secLSN; group is nil when every tree was
// captured at the header LSN, which applies everything).
func (d *DB) replayCommit(lsn uint64, rec txn.CommitRecord, group []uint64, secLSN uint64) error {
	for _, v := range rec.Versions {
		if group != nil {
			if lsn <= group[record.ShardOfKey(v.Key, len(d.store.shards))] {
				// The shard's image was captured past this record: the
				// version is already in it — and in the secondaries too,
				// since SecLSN >= every group LSN.
				continue
			}
			if lsn <= secLSN {
				// The primary shard needs it, the secondary indexes
				// (captured later) already saw it: insert without the
				// index hook.
				if err := d.store.Insert(v); err != nil {
					return fmt.Errorf("db: replay of txn %d at %s: %w", rec.TxnID, rec.Time, err)
				}
				continue
			}
		}
		if err := d.applyCommitted(v); err != nil {
			return fmt.Errorf("db: replay of txn %d at %s: %w", rec.TxnID, rec.Time, err)
		}
	}
	return nil
}

// secondaryNames returns the registered secondary-index names, sorted.
func (d *DB) secondaryNames() []string {
	d.secMu.RLock()
	defer d.secMu.RUnlock()
	names := make([]string, 0, len(d.secondaries))
	for name := range d.secondaries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Checkpoint takes an incremental checkpoint of a durable database and
// truncates the log, without stopping writers: the dirty pages are
// flushed, each shard's boundary is captured under a brief pause of
// commit posting plus that one shard's read latch, and old segments are
// deleted once the checkpoint file is durably installed. Concurrent
// checkpoints serialize.
func (d *DB) Checkpoint() error {
	if d.wal == nil {
		return fmt.Errorf("db: Checkpoint requires a durable database (Config.Dir)")
	}
	d.cpMu.Lock()
	defer d.cpMu.Unlock()
	if d.closed {
		return ErrClosed
	}
	// Fence the background migrator for the duration of the checkpoint:
	// in-flight migrations complete first (pause waits for them), then
	// the workers idle, so no swap rewrites pages and no off-latch burn
	// moves the WORM tail while the boundary is captured. The fence is
	// what keeps page captures boundary-exact with migrations in the
	// system; queued-but-unprocessed marks are not durable state and
	// simply survive (or, after a crash, are re-created by future
	// inserts).
	d.mig.pause()
	defer d.mig.resume()
	return d.checkpointLocked()
}

// checkpointLocked runs a checkpoint — caller holds cpMu with the
// migrator fenced — and accounts the per-checkpoint pause (the sum of
// its quiesce windows) into Stats().Checkpoint.
func (d *DB) checkpointLocked() error {
	sp := d.events.StartSpan("checkpoint", &d.cpHist)
	before := d.cpPauseNanos.Load()
	if err := d.checkpointPagedLocked(); err != nil {
		sp.End("error: " + err.Error())
		return err
	}
	pause := d.cpPauseNanos.Load() - before
	d.cpCount.Add(1)
	d.cpLastPause.Store(pause)
	if pause > d.cpMaxPause.Load() {
		d.cpMaxPause.Store(pause)
	}
	sp.End(fmt.Sprintf("pause=%s", time.Duration(pause)))
	return nil
}

// quiesceTimed is tm.Quiesce plus pause accounting: the commit-posting
// stall a checkpoint inflicts on writers is the sum of its quiesce
// windows, measured here and reported by Stats().Checkpoint.
//
//tsb:wraps commit-token
func (d *DB) quiesceTimed(fn func() error) error {
	start := time.Now()
	err := d.tm.Quiesce(fn)
	d.cpPauseNanos.Add(uint64(time.Since(start)))
	return err
}

// Close stops the maintenance scheduler and the background migrator,
// then closes the write-ahead log. Acknowledged commits are already
// durable (group commit fsyncs before acknowledging), so Close flushes
// nothing; it exists to release the directory cleanly.
//
// What Close guarantees about pending migrations: any migration whose
// swap is in flight completes (so the tree is never left mid-swap — not
// that a torn swap is possible; the swap is atomic under the shard
// latch), and the workers then exit. Leaves still queued are simply left
// unsplit — a valid TSB-tree state; nothing acknowledged depends on a
// mark, and future inserts re-queue them. Call DrainMigrations first if
// every deferred historical node must reach the write-once device before
// the handle is released. Close returns the first background-checkpoint
// or migrator error, if any. Closing an in-memory database only stops
// its migrator.
func (d *DB) Close() error {
	d.cpMu.Lock()
	if d.closed {
		d.cpMu.Unlock()
		return nil
	}
	d.closed = true
	cpErr := d.cpErr
	d.cpMu.Unlock()
	if d.stopCp != nil {
		close(d.stopCp)
		d.cpDone.Wait()
	}
	if err := d.mig.stop(); err != nil && cpErr == nil {
		cpErr = err
	}
	if d.wal != nil {
		if err := d.wal.Close(); err != nil && cpErr == nil {
			cpErr = err
		}
	}
	if d.pf != nil {
		// Acknowledged commits are durable in the WAL regardless; the
		// device files hold at most the last checkpoint boundary plus
		// burns, and reopening reconciles them. Close just releases fds.
		d.closeDevices()
	}
	if d.dirLock != nil {
		// Closing the fd releases the flock: the directory may be
		// reopened by anyone.
		_ = d.dirLock.Close()
	}
	return cpErr
}
