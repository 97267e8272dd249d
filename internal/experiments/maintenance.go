package experiments

// E15: the maintenance economy — does the database age well? Two
// measurements against one paged directory:
//
//   - the fuzzy checkpoint pause: checkpoints run continuously while
//     concurrent writers commit, and Stats().Checkpoint reports how long
//     commit posting was actually quiesced per checkpoint. The per-
//     flush-group capture exists to keep this flat as the database
//     grows.
//   - compaction reclaim: the directory is aged (closed and reopened,
//     which orphans every run burned since the last checkpoint — the
//     same dead payload abandoned migrations and crashes leave behind),
//     then DB.Compact squeezes the burn file and the run reports the
//     write-once capacity handed back and the utilization recovery.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/db"
	"repro/internal/txn"
	"repro/internal/workload"
)

// MaintenanceResult summarizes one E15 run.
type MaintenanceResult struct {
	Ops         uint64
	Checkpoints uint64
	// AvgPauseMillis / MaxPauseMillis are the commit-posting quiesce
	// pauses per checkpoint while writers ran.
	AvgPauseMillis float64
	MaxPauseMillis float64
	// DeadBytes is the unreachable write-once payload the aging left
	// behind; ReclaimedBytes what compaction truncated away.
	DeadBytes      uint64
	ReclaimedBytes uint64
	UtilBefore     float64
	UtilAfter      float64
}

// E15Maintenance drives `workers` concurrent writers over a hot key set
// (small nodes, background migration — time splits burn steadily) with
// checkpoints running throughout, then ages and compacts the directory.
// dir hosts the database.
func E15Maintenance(dir string, workers, opsPerWorker int) (MaintenanceResult, Table, error) {
	cfg := db.Config{
		Dir: dir, Shards: 2, CheckpointBytes: -1,
		LeafCapacity: 512, IndexCapacity: 1024, SectorSize: 256,
		BackgroundMigration: true,
	}
	d, err := db.Open(cfg)
	if err != nil {
		return MaintenanceResult{}, Table{}, err
	}

	// Phase 1 — checkpoint pauses with writers running.
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				k := workload.SpreadKey(uint64(w*64 + i%64))
				err := d.Update(func(tx *txn.Txn) error {
					return tx.Put(k, []byte("maintenance-economy-payload-0123456789"))
				})
				if err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			if err := d.Checkpoint(); err != nil {
				_ = d.Close()
				return MaintenanceResult{}, Table{}, err
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	select {
	case err := <-errCh:
		_ = d.Close()
		return MaintenanceResult{}, Table{}, err
	default:
	}
	if err := d.DrainMigrations(); err != nil {
		_ = d.Close()
		return MaintenanceResult{}, Table{}, err
	}
	cp := d.Stats().Checkpoint
	res := MaintenanceResult{
		Ops:         uint64(workers * opsPerWorker),
		Checkpoints: cp.Checkpoints,
	}
	if cp.Checkpoints > 0 {
		res.AvgPauseMillis = float64(cp.PauseNanos) / float64(cp.Checkpoints) / 1e6
	}
	res.MaxPauseMillis = float64(cp.MaxPauseNanos) / 1e6

	// Phase 2 — age and compact. Close writes no checkpoint, so the
	// reopen's replay re-burns the post-checkpoint migrations and the
	// originals become unreachable: the directory now carries exactly
	// the dead payload a crash or an abandoned migration leaves. The
	// burst below guarantees some burns land after the final checkpoint
	// — without it a short run can end with every burn already covered,
	// and the aging reclaims nothing.
	if err := d.Checkpoint(); err != nil {
		_ = d.Close()
		return MaintenanceResult{}, Table{}, err
	}
	burned0 := d.Stats().WORM.SectorsBurned
	for i := 0; d.Stats().WORM.SectorsBurned < burned0+4; i++ {
		if i >= 200_000 {
			_ = d.Close()
			return MaintenanceResult{}, Table{}, fmt.Errorf("experiments: aging burst burned no sectors after %d puts", i)
		}
		k := workload.SpreadKey(uint64(i % 64))
		err := d.Update(func(tx *txn.Txn) error {
			return tx.Put(k, []byte("maintenance-economy-payload-0123456789"))
		})
		if err != nil {
			_ = d.Close()
			return MaintenanceResult{}, Table{}, err
		}
		if i%64 == 63 {
			if err := d.DrainMigrations(); err != nil {
				_ = d.Close()
				return MaintenanceResult{}, Table{}, err
			}
		}
	}
	if err := d.DrainMigrations(); err != nil {
		_ = d.Close()
		return MaintenanceResult{}, Table{}, err
	}
	if err := d.Close(); err != nil {
		return MaintenanceResult{}, Table{}, err
	}
	a, err := db.Open(cfg)
	if err != nil {
		return MaintenanceResult{}, Table{}, err
	}
	defer a.Close()
	if err := a.DrainMigrations(); err != nil {
		return MaintenanceResult{}, Table{}, err
	}
	if err := a.Checkpoint(); err != nil {
		return MaintenanceResult{}, Table{}, err
	}
	before := a.Stats().Device
	rep, err := a.Compact()
	if err != nil {
		return MaintenanceResult{}, Table{}, err
	}
	after := a.Stats().Device
	res.DeadBytes = before.DeadBytes
	res.ReclaimedBytes = rep.ReclaimedBytes
	res.UtilBefore = before.Utilization
	res.UtilAfter = after.Utilization

	tab := Table{
		Title: "E15: maintenance economy — fuzzy checkpoint pause and compaction reclaim",
		Header: []string{"ops", "ckpts", "avg pause ms", "max pause ms",
			"dead B", "reclaimed B", "util before", "util after"},
		Rows: [][]string{{
			num(res.Ops), num(res.Checkpoints),
			fmt.Sprintf("%.3f", res.AvgPauseMillis), fmt.Sprintf("%.3f", res.MaxPauseMillis),
			num(res.DeadBytes), num(res.ReclaimedBytes),
			fmt.Sprintf("%.2f", res.UtilBefore), fmt.Sprintf("%.2f", res.UtilAfter),
		}},
		Remarks: []string{
			"pause = commit-posting quiesce per checkpoint, writers running (fuzzy per-flush-group capture)",
			"reclaimed = write-once capacity truncated by DB.Compact after aging the directory",
		},
	}
	return res, tab, nil
}
