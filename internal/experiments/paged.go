package experiments

// Paged-device trajectory points (ROADMAP "next candidates"): the WORM
// burn rate — how much write-once capacity each committed operation
// consumes, and how much of it is payload — and the paged checkpoint
// duration, which must scale with the dirty-page set, not the database
// size (the whole point of paging the checkpoint).

import (
	"fmt"
	"time"

	"repro/internal/db"
	"repro/internal/record"
	"repro/internal/txn"
	"repro/internal/workload"
)

// BurnRateResult summarizes WORM consumption over a committed workload.
type BurnRateResult struct {
	Ops          uint64
	BurnedBytes  uint64 // SpaceO consumed by the run
	PayloadBytes uint64
	BurnedPerOp  float64 // bytes of write-once capacity per commit
	Utilization  float64 // payload / burned
}

// WormBurnRate drives an update-heavy single-shard workload (small
// nodes, so time splits migrate steadily) and reports how fast the
// write-once device burns: SpaceO bytes per committed operation and the
// payload fraction. Burn behavior is a property of the splitting policy
// and workload, not the device backend, so the in-memory device keeps
// the measurement free of filesystem noise.
func WormBurnRate(ops int) (BurnRateResult, Table, error) {
	d, err := db.Open(db.Config{LeafCapacity: 512, IndexCapacity: 1024, SectorSize: 256})
	if err != nil {
		return BurnRateResult{}, Table{}, err
	}
	defer d.Close()
	for i := 0; i < ops; i++ {
		k := workload.SpreadKey(uint64(i % 256))
		err := d.Update(func(tx *txn.Txn) error {
			return tx.Put(k, []byte("burn-rate-payload-0123456789abcdef"))
		})
		if err != nil {
			return BurnRateResult{}, Table{}, err
		}
	}
	dev := d.Stats().Device
	res := BurnRateResult{
		Ops:          uint64(ops),
		BurnedBytes:  dev.SpaceO,
		PayloadBytes: dev.PayloadBytes,
		Utilization:  dev.Utilization,
	}
	if ops > 0 {
		res.BurnedPerOp = float64(dev.SpaceO) / float64(ops)
	}
	tab := Table{
		Title:  "WORM burn rate — write-once capacity per committed operation",
		Header: []string{"ops", "burned B", "payload B", "B/op", "utilization"},
		Rows: [][]string{{
			num(res.Ops), num(res.BurnedBytes), num(res.PayloadBytes),
			fmt.Sprintf("%.1f", res.BurnedPerOp), fmt.Sprintf("%.2f", res.Utilization),
		}},
		Remarks: []string{
			"burned = SpaceO (sectors consumed x sector size); consolidated appends keep utilization high (§3.4)",
		},
	}
	return res, tab, nil
}

// CheckpointDurationRow is one database size's paged-checkpoint cost.
type CheckpointDurationRow struct {
	Versions     int
	TotalPages   int
	DirtyFlushed int
	Millis       float64
}

// CheckpointDuration measures the incremental paged checkpoint: for
// each database size, fill a paged directory, checkpoint it, dirty a
// fixed small number of keys, and time the next checkpoint. Its cost
// must track the (fixed) dirty set, not the (growing) database — the
// acceptance measurement for the paged-device subsystem. dirBase hosts
// one subdirectory per size.
func CheckpointDuration(dirBase string, sizes []int, touch int) ([]CheckpointDurationRow, Table, error) {
	rows := make([]CheckpointDurationRow, 0, len(sizes))
	tab := Table{
		Title:  "paged checkpoint duration — cost tracks dirty pages, not database size",
		Header: []string{"versions", "total pages", "pages flushed", "checkpoint ms"},
		Remarks: []string{
			fmt.Sprintf("each checkpoint follows %d single-key updates on an already-checkpointed database", touch),
			"a flat column under a growing database is the O(dirty) property",
		},
	}
	for _, size := range sizes {
		dir := fmt.Sprintf("%s/ckpt-size-%d", dirBase, size)
		d, err := db.Open(db.Config{Dir: dir, CheckpointBytes: -1, Shards: 2})
		if err != nil {
			return nil, Table{}, err
		}
		for n := 0; n < size; n += 128 {
			err := d.Update(func(tx *txn.Txn) error {
				for j := n; j < n+128 && j < size; j++ {
					k := record.Uint64Key(uint64(j) * 0x9e3779b97f4a7c15)
					if err := tx.Put(k, []byte("checkpoint-duration-payload-012345")); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				_ = d.Close()
				return nil, Table{}, err
			}
		}
		if err := d.Checkpoint(); err != nil {
			_ = d.Close()
			return nil, Table{}, err
		}
		for t := 0; t < touch; t++ {
			k := record.Uint64Key(uint64(t*(size/touch+1)) * 0x9e3779b97f4a7c15)
			err := d.Update(func(tx *txn.Txn) error { return tx.Put(k, []byte("dirty")) })
			if err != nil {
				_ = d.Close()
				return nil, Table{}, err
			}
		}
		flushedBefore := d.Stats().Buffer.FlushedPages
		start := time.Now()
		if err := d.Checkpoint(); err != nil {
			_ = d.Close()
			return nil, Table{}, err
		}
		elapsed := time.Since(start)
		st := d.Stats()
		row := CheckpointDurationRow{
			Versions:     size,
			TotalPages:   st.Magnetic.PagesInUse,
			DirtyFlushed: int(st.Buffer.FlushedPages - flushedBefore),
			Millis:       float64(elapsed.Microseconds()) / 1000,
		}
		rows = append(rows, row)
		tab.Rows = append(tab.Rows, []string{
			num(uint64(row.Versions)), num(uint64(row.TotalPages)),
			num(uint64(row.DirtyFlushed)), fmt.Sprintf("%.2f", row.Millis),
		})
		_ = d.Close()
	}
	return rows, tab, nil
}
