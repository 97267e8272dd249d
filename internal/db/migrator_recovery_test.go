package db

// Kill-and-recover coverage for the background migrator: crash a paged
// durable database while per-shard workers are capturing, burning, and
// swapping in the background, and demand the standard durability
// invariants — every acknowledged commit fully present, no phantom data,
// invariants intact, database writable. Migration marks are not durable
// state: a crash may orphan a burned-but-unswapped historical node as
// write-once waste (exactly as a torn migration on real WORM media), but
// can never lose or duplicate a version.
//
// The CI recovery job runs these by name: go test -race -run Recovery ./...

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/record"
	"repro/internal/storage"
	"repro/internal/txn"
)

// TestRecoveryPagedMigratorConcurrentCrash is TestRecoveryPagedConcurrentCrash
// with the background migrator running: concurrent writers produce a
// steady stream of deferred time splits (updates to a small hot key set),
// background checkpoints fence the workers, and the injected tear crashes
// the process at an arbitrary byte of the durable write stream — possibly
// mid-burn or between a burn and its swap. Race-clean.
func TestRecoveryPagedMigratorConcurrentCrash(t *testing.T) {
	for _, tear := range []int64{2500, 9000, 22_000, 47_000} {
		dir := t.TempDir()
		plan := storage.NewTearPlan(tear)
		cfg := pagedConfig(dir)
		cfg.Shards = 4
		cfg.CheckpointBytes = 2048
		cfg.BackgroundMigration = true
		cfg.logWrap = func(f storage.LogFile) storage.LogFile {
			return storage.NewTornLogFile(f, plan)
		}
		cfg.blockWrap = func(f storage.BlockFile) storage.BlockFile {
			return storage.NewTornBlockFile(f, plan)
		}
		d, err := Open(cfg)
		if err != nil {
			if errors.Is(err, storage.ErrInjected) {
				continue // tear fired inside the seal checkpoint
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
					// A small hot key set per worker: repeated updates
					// build history fast, so time splits (and therefore
					// background migrations) fire continuously.
					k := fmt.Sprintf("w%d-key%02d", w, i%8)
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
					ackedVals[k+"="+val] = true
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		migrated := d.Stats().Migrator.Migrated
		crash(d)

		recfg := pagedConfig(dir)
		recfg.Shards = 4
		recfg.BackgroundMigration = true
		re, err := Open(recfg)
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
				t.Fatalf("tear=%d: acknowledged %q lost (migrations before crash: %d)", tear, pair, migrated)
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
		// The recovered database migrates in the background too: write
		// through it, drain, and re-verify.
		for i := 0; i < 120; i++ {
			k := fmt.Sprintf("post-key%02d", i%6)
			if err := re.Update(func(tx *txn.Txn) error {
				return tx.Put(record.StringKey(k), []byte(fmt.Sprintf("post-val%04d", i)))
			}); err != nil {
				t.Fatalf("tear=%d: write after recovery: %v", tear, err)
			}
		}
		if err := re.DrainMigrations(); err != nil {
			t.Fatalf("tear=%d: drain after recovery: %v", tear, err)
		}
		if err := re.CheckInvariants(); err != nil {
			t.Fatalf("tear=%d: invariants after post-recovery writes: %v", tear, err)
		}
		re.Close()
	}
}
