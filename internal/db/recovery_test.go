package db

// Kill-and-recover property tests: crash the durable database at
// injected fault points (torn WAL appends, torn checkpoint writes) and
// assert that Open recovers exactly the committed prefix — byte-identical
// scans, histories, and secondary lookups against an in-memory oracle
// that applied only the acknowledged commits.
//
// The CI recovery job runs these by name: go test -race -run Recovery ./...

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/record"
	"repro/internal/storage"
	"repro/internal/txn"
)

// oracleOp is one committed transaction as the oracle will replay it.
type oracleOp struct {
	puts map[string]string // key -> value; empty value means delete
}

// crash simulates power loss: nothing is flushed or closed in order,
// but the directory flock vanishes exactly as it does when the holding
// process dies. The background checkpointer is reaped only so the test
// process doesn't leak goroutines; a pass that already started may
// complete, which is indistinguishable from a checkpoint landing just
// before the power cut.
func crash(d *DB) {
	d.cpMu.Lock()
	stopped := d.closed
	d.closed = true
	d.cpMu.Unlock()
	if !stopped && d.stopCp != nil {
		close(d.stopCp)
		d.cpDone.Wait()
	}
	// Background migrator workers are reaped for the same goroutine-leak
	// reason as the checkpointer: a migration that already reached its
	// swap may complete, indistinguishable from one landing just before
	// the power cut.
	_ = d.mig.stop()
	if d.dirLock != nil {
		_ = d.dirLock.Close()
	}
}

// applyOracle replays acknowledged commits into a fresh in-memory
// database with the same shape, producing the expected post-crash state.
func applyOracle(t *testing.T, cfg Config, ops []oracleOp) *DB {
	t.Helper()
	cfg.Dir = ""
	cfg.logWrap = nil
	cfg.blockWrap = nil
	o, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		err := o.Update(func(tx *txn.Txn) error {
			for k, v := range op.puts {
				if v == "" {
					if err := tx.Delete(record.StringKey(k)); err != nil {
						return err
					}
				} else if err := tx.Put(record.StringKey(k), []byte(v)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("oracle replay: %v", err)
		}
	}
	return o
}

// assertEquivalent compares the recovered database against the oracle on
// every read surface: full temporal scan, per-key history, current
// snapshot, and (when present) secondary lookups at every commit time.
func assertEquivalent(t *testing.T, label string, got, want *DB, secNames []string) {
	t.Helper()
	if got.Now() != want.Now() {
		t.Fatalf("%s: clock = %v, want %v", label, got.Now(), want.Now())
	}
	gotAll, err := got.ScanRange(nil, record.InfiniteBound(), 1, record.TimeInfinity)
	if err != nil {
		t.Fatal(err)
	}
	wantAll, err := want.ScanRange(nil, record.InfiniteBound(), 1, record.TimeInfinity)
	if err != nil {
		t.Fatal(err)
	}
	assertSameVersions(t, label+" full temporal scan", gotAll, wantAll)
	seen := map[string]bool{}
	for _, v := range wantAll {
		if seen[string(v.Key)] {
			continue
		}
		seen[string(v.Key)] = true
		gh, err := got.History(v.Key)
		if err != nil {
			t.Fatal(err)
		}
		wh, err := want.History(v.Key)
		if err != nil {
			t.Fatal(err)
		}
		assertSameVersions(t, fmt.Sprintf("%s history(%s)", label, v.Key), gh, wh)
	}
	for _, name := range secNames {
		for at := record.Timestamp(1); at <= want.Now(); at++ {
			for _, v := range wantAll {
				if v.Tombstone || v.Time > at {
					continue
				}
				skey := deptExtract(v.Value)
				if skey == nil {
					continue
				}
				gotPK, err := got.LookupSecondary(name, skey, at)
				if err != nil {
					t.Fatal(err)
				}
				wantPK, err := want.LookupSecondary(name, skey, at)
				if err != nil {
					t.Fatal(err)
				}
				if len(gotPK) != len(wantPK) {
					t.Fatalf("%s: secondary %s(%s)@%v: %d keys, want %d",
						label, name, skey, at, len(gotPK), len(wantPK))
				}
				for i := range wantPK {
					if !gotPK[i].Equal(wantPK[i]) {
						t.Fatalf("%s: secondary %s(%s)@%v key %d = %s, want %s",
							label, name, skey, at, i, gotPK[i], wantPK[i])
					}
				}
			}
		}
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("%s: invariants: %v", label, err)
	}
}

// runUntilCrash drives single-writer commits against d until one fails
// (the injected tear) or the workload ends. It returns the acknowledged
// operations in commit order and the operation that failed (nil if none).
func runUntilCrash(t *testing.T, d *DB, rng *rand.Rand, maxOps int) (acked []oracleOp, unacked *oracleOp) {
	t.Helper()
	for i := 0; i < maxOps; i++ {
		op := oracleOp{puts: map[string]string{}}
		for n := rng.Intn(3) + 1; n > 0; n-- {
			// Leading byte spans the key space so commits land on
			// every shard, not just the one owning a shared prefix.
			idx := rng.Intn(12)
			k := fmt.Sprintf("%c-key%02d", byte(idx%4)*64+33, idx)
			if rng.Intn(8) == 0 {
				op.puts[k] = "" // delete
			} else {
				op.puts[k] = fmt.Sprintf("dept%02d|val%d", rng.Intn(3), i)
			}
		}
		err := d.Update(func(tx *txn.Txn) error {
			for k, v := range op.puts {
				if v == "" {
					if err := tx.Delete(record.StringKey(k)); err != nil {
						return err
					}
				} else if err := tx.Put(record.StringKey(k), []byte(v)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			if !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("commit failed with non-injected error: %v", err)
			}
			return acked, &op
		}
		acked = append(acked, op)
	}
	return acked, nil
}

// TestRecoveryTornTailSweep is the deterministic kill-and-recover
// property test: for a dense sweep of byte offsets into the WAL write
// stream, crash there, reopen, and demand the recovered database equal
// the oracle of acknowledged commits — plus at most the one in-flight
// commit whose frame happened to land intact (standard
// presumed-durable-once-logged semantics), never anything else and never
// half of it.
func TestRecoveryTornTailSweep(t *testing.T) {
	secs := map[string]SecondaryExtract{"dept": deptExtract}
	// Probe a prefix byte-by-byte (frame boundaries, headers, CRC bytes
	// all land in it), then stride through the rest of the stream.
	var faultPoints []int64
	for b := int64(0); b < 160; b++ {
		faultPoints = append(faultPoints, b)
	}
	for b := int64(160); b < 6000; b += 37 {
		faultPoints = append(faultPoints, b)
	}
	for _, tear := range faultPoints {
		dir := t.TempDir()
		plan := storage.NewTearPlan(tear)
		cfg := Config{
			Dir: dir, Shards: 2, Secondaries: secs, CheckpointBytes: -1,
			logWrap: func(f storage.LogFile) storage.LogFile {
				return storage.NewTornLogFile(f, plan)
			},
		}
		d, err := Open(cfg)
		if err != nil {
			// The tear fired during the open-time seal checkpoint: the
			// directory must still be recoverable (as empty or absent
			// state); handled by reopening below.
			if !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("tear=%d: open: %v", tear, err)
			}
			continue
		}
		rng := rand.New(rand.NewSource(tear))
		acked, unacked := runUntilCrash(t, d, rng, 40)
		// Simulated power loss: drop the handle without Close.
		crash(d)

		reopened, err := Open(Config{Dir: dir, Shards: 2, Secondaries: secs, CheckpointBytes: -1})
		if err != nil {
			t.Fatalf("tear=%d: recovery failed: %v", tear, err)
		}
		label := fmt.Sprintf("tear=%d", tear)
		// The recovered state is the acknowledged prefix, possibly plus
		// the single unacknowledged in-flight commit if its frame was
		// fully durable before the crash. Which of the two is decided
		// by the recovered clock.
		want := acked
		if unacked != nil && reopened.Now() == record.Timestamp(len(acked))+1 {
			want = append(append([]oracleOp{}, acked...), *unacked)
		} else if reopened.Now() != record.Timestamp(len(acked)) {
			t.Fatalf("%s: recovered clock %v with %d acked commits", label, reopened.Now(), len(acked))
		}
		oracle := applyOracle(t, cfg, want)
		assertEquivalent(t, label, reopened, oracle, []string{"dept"})
		reopened.Close()
		oracle.Close()
	}
}

// armedTear is a fault seam for both kinds of durable file whose
// TearPlan is installed later (arm): opening the directory and running
// the workload write through untouched, and only bytes written after
// arm count toward the tear.
type armedTear struct {
	plan    atomic.Pointer[storage.TearPlan]
	written atomic.Int64
}

func (a *armedTear) arm(budget int64) { a.plan.Store(storage.NewTearPlan(budget)) }

func (a *armedTear) logWrap(f storage.LogFile) storage.LogFile { return armedLog{f, a} }

func (a *armedTear) blockWrap(f storage.BlockFile) storage.BlockFile { return armedBlock{f, a} }

type armedLog struct {
	storage.LogFile
	a *armedTear
}

func (f armedLog) Write(p []byte) (int, error) {
	f.a.written.Add(int64(len(p)))
	return storage.NewTornLogFile(f.LogFile, f.a.plan.Load()).Write(p)
}

func (f armedLog) Sync() error { return storage.NewTornLogFile(f.LogFile, f.a.plan.Load()).Sync() }

type armedBlock struct {
	storage.BlockFile
	a *armedTear
}

func (f armedBlock) WriteAt(p []byte, off int64) (int, error) {
	f.a.written.Add(int64(len(p)))
	return storage.NewTornBlockFile(f.BlockFile, f.a.plan.Load()).WriteAt(p, off)
}

func (f armedBlock) Truncate(size int64) error {
	return storage.NewTornBlockFile(f.BlockFile, f.a.plan.Load()).Truncate(size)
}

func (f armedBlock) Sync() error {
	return storage.NewTornBlockFile(f.BlockFile, f.a.plan.Load()).Sync()
}

// midCheckpointRun opens a fresh directory behind an armed seam, commits
// a fixed workload with a checkpoint in the middle (so the next flush
// both journals overwritten pages and writes new ones), then arms the
// seam to tear after `tear` bytes and takes one more checkpoint. It
// returns the database, the acknowledged commits, the checkpoint's
// error, and how many bytes the checkpoint wrote.
func midCheckpointRun(t *testing.T, dir string, tear int64) (d *DB, acked []oracleOp, cpErr error, written int64) {
	t.Helper()
	var seam armedTear
	cfg := pagedConfig(dir)
	cfg.logWrap, cfg.blockWrap = seam.logWrap, seam.blockWrap
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	acked, _ = runUntilCrash(t, d, rng, 30)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	more, _ := runUntilCrash(t, d, rng, 10)
	acked = append(acked, more...)
	seam.arm(tear)
	before := seam.written.Load()
	cpErr = d.Checkpoint()
	return d, acked, cpErr, seam.written.Load() - before
}

// TestRecoveryMidCheckpointCrash crashes inside a checkpoint's write
// stream — the rollback journal, the page flush, the checkpoint
// metadata install — and demands that recovery restore the previous
// boundary and replay the full log to everything acknowledged. The
// stream is measured on an untorn twin run first; the sweep covers it
// end to end, and every offset must tear (ErrInjected), so none of them
// silently measures an uninterrupted checkpoint.
func TestRecoveryMidCheckpointCrash(t *testing.T) {
	twin, _, err, stream := midCheckpointRun(t, t.TempDir(), 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	twin.Close()
	tears := []int64{0, 1, 7, 64, 200, 800}
	if stream <= tears[len(tears)-1] {
		t.Fatalf("checkpoint wrote only %d bytes; the sweep would not reach its fixed offsets", stream)
	}
	for b := int64(13); b < stream; b += 29 {
		tears = append(tears, b)
	}
	tears = append(tears, stream-1)
	for _, tear := range tears {
		dir := t.TempDir()
		d, acked, err, _ := midCheckpointRun(t, dir, tear)
		if !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("tear=%d of %d: torn checkpoint error = %v", tear, stream, err)
		}
		// Power loss here. Recovery must not trust the torn files.
		crash(d)
		reopened, err := Open(pagedConfig(dir))
		if err != nil {
			t.Fatalf("tear=%d: recovery: %v", tear, err)
		}
		oracle := applyOracle(t, pagedConfig(dir), acked)
		assertEquivalent(t, fmt.Sprintf("ckpt-tear=%d", tear), reopened, oracle, nil)
		reopened.Close()
		oracle.Close()
	}
}

// TestRecoveryConcurrentCrash crashes a concurrent multi-writer,
// checkpoint-heavy run at an arbitrary WAL offset and asserts the two
// durability invariants that survive nondeterminism: every acknowledged
// commit is fully present, and every unacknowledged commit is fully
// present or fully absent (frame atomicity) — never torn. Race-clean.
func TestRecoveryConcurrentCrash(t *testing.T) {
	for _, tear := range []int64{300, 1500, 4000, 9000} {
		dir := t.TempDir()
		plan := storage.NewTearPlan(tear)
		d, err := Open(Config{
			Dir: dir, Shards: 4, CheckpointBytes: 2048,
			logWrap: func(f storage.LogFile) storage.LogFile {
				return storage.NewTornLogFile(f, plan)
			},
		})
		if err != nil {
			if errors.Is(err, storage.ErrInjected) {
				continue // tear landed in the seal checkpoint
			}
			t.Fatal(err)
		}
		const workers = 4
		var mu sync.Mutex
		ackedVals := map[string]string{} // key -> last acknowledged value... per key per worker
		attempted := map[string]bool{}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					// Each worker owns its keys: no lock conflicts, and
					// each (key,value) pair is attempted exactly once.
					k := fmt.Sprintf("w%d-key%02d", w, i%16)
					val := fmt.Sprintf("w%d-val%05d", w, i)
					mu.Lock()
					attempted[k+"="+val] = true
					mu.Unlock()
					err := d.Update(func(tx *txn.Txn) error {
						return tx.Put(record.StringKey(k), []byte(val))
					})
					if err != nil {
						return // crashed
					}
					mu.Lock()
					ackedVals[k+"="+val] = k
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		// Power loss: no Close.
		crash(d)

		reopened, err := Open(Config{Dir: dir, Shards: 4, CheckpointBytes: -1})
		if err != nil {
			t.Fatalf("tear=%d: recovery: %v", tear, err)
		}
		// Collect every recovered (key, value) pair across all time.
		all, err := reopened.ScanRange(nil, record.InfiniteBound(), 1, record.TimeInfinity)
		if err != nil {
			t.Fatal(err)
		}
		recovered := map[string]bool{}
		for _, v := range all {
			recovered[string(v.Key)+"="+string(v.Value)] = true
		}
		// Durability: every acknowledged pair is present.
		for pair := range ackedVals {
			if !recovered[pair] {
				t.Fatalf("tear=%d: acknowledged %q lost", tear, pair)
			}
		}
		// No phantoms: every recovered pair was at least attempted.
		for pair := range recovered {
			if !attempted[pair] {
				t.Fatalf("tear=%d: recovered %q was never written", tear, pair)
			}
		}
		if err := reopened.CheckInvariants(); err != nil {
			t.Fatalf("tear=%d: invariants: %v", tear, err)
		}
		// And the recovered database keeps working.
		if err := reopened.Update(func(tx *txn.Txn) error {
			return tx.Put(record.StringKey("post"), []byte("crash"))
		}); err != nil {
			t.Fatalf("tear=%d: write after recovery: %v", tear, err)
		}
		reopened.Close()
	}
}

// TestRecoveryMultiKeyAtomicity tears inside multi-key commit frames and
// asserts a transaction is never half-recovered: for every commit, all
// of its keys carry its commit time or none do.
func TestRecoveryMultiKeyAtomicity(t *testing.T) {
	for tear := int64(50); tear < 2500; tear += 61 {
		dir := t.TempDir()
		plan := storage.NewTearPlan(tear)
		d, err := Open(Config{
			Dir: dir, Shards: 4, CheckpointBytes: -1,
			logWrap: func(f storage.LogFile) storage.LogFile {
				return storage.NewTornLogFile(f, plan)
			},
		})
		if err != nil {
			if errors.Is(err, storage.ErrInjected) {
				continue
			}
			t.Fatal(err)
		}
		// Every commit touches the same 4 keys, spread across shards.
		keys := []string{"a-far-left", "h-middle-1", "p-middle-2", "z-far-right"}
		for i := 0; ; i++ {
			err := d.Update(func(tx *txn.Txn) error {
				for _, k := range keys {
					if err := tx.Put(record.StringKey(k), []byte(fmt.Sprintf("gen%04d", i))); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				break
			}
			if i > 200 {
				t.Fatalf("tear=%d never fired", tear)
			}
		}
		crash(d)
		reopened, err := Open(Config{Dir: dir, Shards: 4, CheckpointBytes: -1})
		if err != nil {
			t.Fatalf("tear=%d: recovery: %v", tear, err)
		}
		for at := record.Timestamp(1); at <= reopened.Now(); at++ {
			count := 0
			var gen string
			for _, k := range keys {
				hist, err := reopened.History(record.StringKey(k))
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range hist {
					if v.Time == at {
						count++
						if gen == "" {
							gen = string(v.Value)
						} else if gen != string(v.Value) {
							t.Fatalf("tear=%d: commit %v mixes %q and %q", tear, at, gen, v.Value)
						}
					}
				}
			}
			if count != len(keys) {
				t.Fatalf("tear=%d: commit %v recovered %d of %d keys (torn transaction)",
					tear, at, count, len(keys))
			}
		}
		reopened.Close()
	}
}
