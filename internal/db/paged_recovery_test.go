package db

// Kill-and-recover property tests for the paged durable mode: one
// shared TearPlan budget spans the WHOLE durable write stream — WAL
// segments, checkpoint files, the magnetic page file, its rollback
// journal, and the WORM burn file — so a byte sweep tears every kind of
// write somewhere: mid-WAL-frame, mid-page-flush (torn magnetic page),
// mid-burn (torn WORM sector), mid-journal, mid-checkpoint-install.
// After each tear the directory is reopened and compared against the
// in-memory oracle of acknowledged commits.
//
// The CI recovery job runs these by name: go test -race -run Recovery ./...

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/record"
	"repro/internal/storage"
	"repro/internal/txn"
)

// pagedCrashConfig wires one TearPlan through both fault seams of a
// paged directory.
func pagedCrashConfig(dir string, plan *storage.TearPlan) Config {
	cfg := pagedConfig(dir)
	cfg.Secondaries = map[string]SecondaryExtract{"dept": deptExtract}
	cfg.logWrap = func(f storage.LogFile) storage.LogFile {
		return storage.NewTornLogFile(f, plan)
	}
	cfg.blockWrap = func(f storage.BlockFile) storage.BlockFile {
		return storage.NewTornBlockFile(f, plan)
	}
	return cfg
}

// runPagedUntilCrash drives single-writer commits with a checkpoint
// every cpEvery commits, until the injected tear fires somewhere in the
// durable write stream. It returns the acknowledged operations and the
// operation in flight when the device died (nil if the tear fired
// inside a checkpoint instead).
func runPagedUntilCrash(t *testing.T, d *DB, rng *rand.Rand, maxOps, cpEvery int) (acked []oracleOp, unacked *oracleOp) {
	t.Helper()
	for i := 0; i < maxOps; i++ {
		op := oracleOp{puts: map[string]string{}}
		for n := rng.Intn(3) + 1; n > 0; n-- {
			idx := rng.Intn(12)
			k := fmt.Sprintf("%c-key%02d", byte(idx%4)*64+33, idx)
			if rng.Intn(8) == 0 {
				op.puts[k] = ""
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
		if (i+1)%cpEvery == 0 {
			if err := d.Checkpoint(); err != nil {
				if !errors.Is(err, storage.ErrInjected) {
					t.Fatalf("checkpoint failed with non-injected error: %v", err)
				}
				return acked, nil
			}
		}
	}
	return acked, nil
}

// TestRecoveryPagedTornSweep is the paged kill-and-recover property
// test: sweep byte offsets into the durable write stream of a
// checkpoint-heavy single-writer run, crash there, reopen, and demand
// the recovered database equal the oracle of acknowledged commits (plus
// at most the one in-flight commit whose WAL frame landed intact) on
// every read surface, secondary lookups included.
func TestRecoveryPagedTornSweep(t *testing.T) {
	var faultPoints []int64
	// Byte-by-byte through the early stream (the seal checkpoint's
	// device and metadata writes, first WAL frames), then stride
	// through a span long enough to cover several checkpoint flushes,
	// journal writes, and WORM burns.
	for b := int64(0); b < 220; b++ {
		faultPoints = append(faultPoints, b)
	}
	for b := int64(220); b < 60_000; b += 211 {
		faultPoints = append(faultPoints, b)
	}
	secs := map[string]SecondaryExtract{"dept": deptExtract}
	for _, tear := range faultPoints {
		dir := t.TempDir()
		plan := storage.NewTearPlan(tear)
		cfg := pagedCrashConfig(dir, plan)
		d, err := Open(cfg)
		if err != nil {
			// The tear fired during the open-time seal checkpoint (or
			// its device-file creation): the directory must still
			// recover as empty.
			if !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("tear=%d: open: %v", tear, err)
			}
			re, rerr := Open(pagedConfigWithSecs(dir, secs))
			if rerr != nil {
				t.Fatalf("tear=%d: recovery of torn-seal directory: %v", tear, rerr)
			}
			if re.Now() != 0 {
				t.Fatalf("tear=%d: torn-seal directory recovered clock %v", tear, re.Now())
			}
			re.Close()
			continue
		}
		rng := rand.New(rand.NewSource(tear))
		acked, unacked := runPagedUntilCrash(t, d, rng, 60, 7)
		crash(d)

		reopened, err := Open(pagedConfigWithSecs(dir, secs))
		if err != nil {
			t.Fatalf("tear=%d: recovery failed: %v", tear, err)
		}
		label := fmt.Sprintf("paged-tear=%d", tear)
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

func pagedConfigWithSecs(dir string, secs map[string]SecondaryExtract) Config {
	cfg := pagedConfig(dir)
	cfg.Secondaries = secs
	return cfg
}

// TestRecoveryPagedDoubleCrash tears a first recovery-and-run, then
// crashes AGAIN mid-stream and recovers once more: the journal/boundary
// protocol must compose across repeated crashes.
func TestRecoveryPagedDoubleCrash(t *testing.T) {
	secs := map[string]SecondaryExtract{"dept": deptExtract}
	for _, tears := range [][2]int64{{3000, 2000}, {9000, 5000}, {17_000, 900}, {26_000, 12_000}} {
		dir := t.TempDir()
		plan := storage.NewTearPlan(tears[0])
		d, err := Open(pagedCrashConfig(dir, plan))
		if err != nil {
			if errors.Is(err, storage.ErrInjected) {
				continue
			}
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(tears[0]))
		acked, unacked := runPagedUntilCrash(t, d, rng, 60, 7)
		crash(d)

		plan2 := storage.NewTearPlan(tears[1])
		d2, err := Open(pagedCrashConfig(dir, plan2))
		if err != nil {
			if !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("tears=%v: second open: %v", tears, err)
			}
			continue // the second tear fired during recovery's own opens
		}
		if unacked != nil && d2.Now() == record.Timestamp(len(acked))+1 {
			acked = append(acked, *unacked)
		}
		more, unacked2 := runPagedUntilCrash(t, d2, rng, 40, 5)
		acked = append(acked, more...)
		crash(d2)

		re, err := Open(pagedConfigWithSecs(dir, secs))
		if err != nil {
			t.Fatalf("tears=%v: final recovery: %v", tears, err)
		}
		label := fmt.Sprintf("paged-double-tear=%v", tears)
		want := acked
		if unacked2 != nil && re.Now() == record.Timestamp(len(acked))+1 {
			want = append(append([]oracleOp{}, acked...), *unacked2)
		} else if re.Now() != record.Timestamp(len(acked)) {
			t.Fatalf("%s: recovered clock %v with %d acked commits", label, re.Now(), len(acked))
		}
		oracle := applyOracle(t, pagedConfigWithSecs(dir, secs), want)
		assertEquivalent(t, label, re, oracle, []string{"dept"})
		re.Close()
		oracle.Close()
	}
}

// TestRecoveryPagedConcurrentCrash crashes a concurrent multi-writer,
// checkpoint-heavy paged run at an arbitrary offset into the durable
// write stream and asserts the durability invariants that survive
// nondeterminism: every acknowledged commit fully present, no phantom
// or torn data, invariants intact, database writable. Race-clean.
func TestRecoveryPagedConcurrentCrash(t *testing.T) {
	for _, tear := range []int64{2000, 8000, 20_000, 45_000} {
		dir := t.TempDir()
		plan := storage.NewTearPlan(tear)
		cfg := pagedConfig(dir)
		cfg.Shards = 4
		cfg.CheckpointBytes = 2048
		cfg.logWrap = func(f storage.LogFile) storage.LogFile {
			return storage.NewTornLogFile(f, plan)
		}
		cfg.blockWrap = func(f storage.BlockFile) storage.BlockFile {
			return storage.NewTornBlockFile(f, plan)
		}
		d, err := Open(cfg)
		if err != nil {
			if errors.Is(err, storage.ErrInjected) {
				continue
			}
			t.Fatal(err)
		}
		const workers = 4
		var mu sync.Mutex
		ackedVals := map[string]bool{}
		attempted := map[string]bool{}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					k := fmt.Sprintf("w%d-key%02d", w, i%16)
					val := fmt.Sprintf("w%d-val%05d", w, i)
					mu.Lock()
					attempted[k+"="+val] = true
					mu.Unlock()
					err := d.Update(func(tx *txn.Txn) error {
						return tx.Put(record.StringKey(k), []byte(val))
					})
					if err != nil {
						return
					}
					mu.Lock()
					ackedVals[k+"="+val] = true
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		crash(d)

		re, err := Open(Config{
			Dir: dir, Shards: 4, CheckpointBytes: -1,
			LeafCapacity: 512, IndexCapacity: 1024, SectorSize: 256,
		})
		if err != nil {
			t.Fatalf("tear=%d: recovery: %v", tear, err)
		}
		all, err := re.Cursor(nil, record.InfiniteBound(), ScanOptions{From: 1, To: record.TimeInfinity}).Collect()
		if err != nil {
			t.Fatal(err)
		}
		recovered := map[string]bool{}
		for _, v := range all {
			recovered[string(v.Key)+"="+string(v.Value)] = true
		}
		for pair := range ackedVals {
			if !recovered[pair] {
				t.Fatalf("tear=%d: acknowledged %q lost", tear, pair)
			}
		}
		for pair := range recovered {
			if !attempted[pair] {
				t.Fatalf("tear=%d: recovered %q was never written", tear, pair)
			}
		}
		if err := re.CheckInvariants(); err != nil {
			t.Fatalf("tear=%d: invariants: %v", tear, err)
		}
		if err := re.Update(func(tx *txn.Txn) error {
			return tx.Put(record.StringKey("post"), []byte("crash"))
		}); err != nil {
			t.Fatalf("tear=%d: write after recovery: %v", tear, err)
		}
		re.Close()
	}
}
