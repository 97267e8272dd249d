package repro_test

// One benchmark per experiment of the paper's evaluation plan (§3.2 and
// §5, realized as experiments E1-E9 in internal/experiments), plus micro-benchmarks of the core operations. The experiment
// benchmarks run a full workload per iteration and report the headline
// quantity of their table via b.ReportMetric; `go run ./cmd/tsbench`
// prints the full tables.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/experiments"
	"repro/internal/record"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/workload"
)

// benchParams keeps a full sweep iteration to a few seconds.
var benchParams = experiments.Params{
	Ops: 5000, ValueSize: 32, Seed: 1, PageSize: 4096, SectorSize: 1024,
}

func runSweep(b *testing.B) *experiments.Sweep {
	b.Helper()
	s, err := experiments.RunSweep(benchParams)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkE1TotalSpace regenerates the E1 table (total space use vs
// update fraction per splitting policy, §5 plan) and reports the
// key-pref : WOBT total-space ratio at u=1.0.
func BenchmarkE1TotalSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := runSweep(b)
		tsb := s.TSB["tsb-keypref"][1.0].Report.TotalBytes()
		wobtStats := s.WOBT[1.0].WORM.Stats()
		wobt := wobtStats.BytesBurned(benchParams.SectorSize)
		if i == b.N-1 {
			b.ReportMetric(float64(tsb)/1024, "tsb-keypref-KiB")
			b.ReportMetric(float64(wobt)/1024, "wobt-KiB")
			b.Logf("\n%s", s.E1TotalSpace())
		}
	}
}

// BenchmarkE2CurrentSpace regenerates the E2 table (current-database space
// use) and reports magnetic KiB for the time-pref and key-pref extremes at
// u=1.0.
func BenchmarkE2CurrentSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := runSweep(b)
		if i == b.N-1 {
			b.ReportMetric(float64(s.TSB["tsb-timepref"][1.0].Report.MagneticBytes)/1024, "timepref-KiB")
			b.ReportMetric(float64(s.TSB["tsb-keypref"][1.0].Report.MagneticBytes)/1024, "keypref-KiB")
			b.Logf("\n%s", s.E2CurrentSpace())
		}
	}
}

// BenchmarkE3Redundancy regenerates the E3 table (redundant copies per
// distinct version).
func BenchmarkE3Redundancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := runSweep(b)
		if i == b.N-1 {
			b.ReportMetric(s.TSB["tsb-now"][1.0].Report.RedundancyRatio(), "now-redundancy")
			b.ReportMetric(s.TSB["tsb-lastupdate"][1.0].Report.RedundancyRatio(), "lastupdate-redundancy")
			b.Logf("\n%s", s.E3Redundancy())
		}
	}
}

// BenchmarkE4CostFunction regenerates the E4 table (CS = SpaceM·CM +
// SpaceO·CO across CO/CM ratios, §3.2).
func BenchmarkE4CostFunction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := runSweep(b)
		if i == b.N-1 {
			rep := s.TSB["tsb-lastupdate"][0.6].Report
			b.ReportMetric(rep.Cost(1.0, 0.1)/1024, "CS-co0.1-KiB")
			b.ReportMetric(rep.Cost(1.0, 1.0)/1024, "CS-co1.0-KiB")
			b.Logf("\n%s", s.E4CostFunction(0.6))
		}
	}
}

// BenchmarkE5SearchIO regenerates the E5 table (device reads and simulated
// latency per query kind per structure).
func BenchmarkE5SearchIO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, tab, err := experiments.E5SearchIO(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range results {
				if r.Query == "get-current" {
					b.ReportMetric(r.AvgReads, r.Structure+"-reads/get")
				}
			}
			b.Logf("\n%s", tab)
		}
	}
}

// BenchmarkE6SectorUtilization regenerates the E6 table (WORM sector
// utilization: consolidated appends vs one-record-per-sector writes, §1).
func BenchmarkE6SectorUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := runSweep(b)
		if i == b.N-1 {
			b.ReportMetric(s.TSB["tsb-timepref"][1.0].Report.SectorUtilization, "tsb-utilization")
			b.ReportMetric(s.WOBT[1.0].WORM.Stats().Utilization(benchParams.SectorSize), "wobt-utilization")
			b.Logf("\n%s", s.E6SectorUtilization())
		}
	}
}

// BenchmarkE7SplitTimeChoice regenerates the E7 table (split-time choice
// ablation, §3.3).
func BenchmarkE7SplitTimeChoice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := runSweep(b)
		if i == b.N-1 {
			b.ReportMetric(float64(s.TSB["tsb-now"][1.0].Tree.Stats().VersionsMigrated), "now-migrated")
			b.ReportMetric(float64(s.TSB["tsb-lastupdate"][1.0].Tree.Stats().VersionsMigrated), "lastupdate-migrated")
			b.Logf("\n%s", s.E7SplitTimeChoice())
		}
	}
}

// BenchmarkE8IndexSplits regenerates the E8 table (index-node split
// behaviour, §3.5).
func BenchmarkE8IndexSplits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := runSweep(b)
		if i == b.N-1 {
			st := s.TSB["tsb-timepref"][0.8].Tree.Stats()
			b.ReportMetric(float64(st.IndexTimeSplits), "idx-time-splits")
			b.ReportMetric(float64(st.IndexKeySplits), "idx-key-splits")
			b.Logf("\n%s", s.E8IndexSplits())
		}
	}
}

// BenchmarkE9ReadOnly regenerates the E9 table (lock-free read-only
// transactions under concurrent updaters, §4.1).
func BenchmarkE9ReadOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, tab, err := experiments.E9ReadOnly(4, 4, 100, 25)
		if err != nil {
			b.Fatal(err)
		}
		if res.SnapshotLeaks != 0 {
			b.Fatalf("snapshot leaks: %d", res.SnapshotLeaks)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(res.Commits), "commits")
			b.ReportMetric(float64(res.ReaderScans), "reader-scans")
			b.Logf("\n%s", tab)
		}
	}
}

// --- Sharded-engine scaling benchmarks (b.RunParallel) ---

// benchShardedDB opens a sharded database preloaded with spread keys.
func benchShardedDB(b testing.TB, shards, preloadKeys int) *db.DB {
	b.Helper()
	d, err := db.Open(db.Config{Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < preloadKeys; i++ {
		k := workload.SpreadKey(uint64(i))
		err := d.Update(func(tx *txn.Txn) error {
			return tx.Put(k, []byte("preload-payload-0123456789abcdef"))
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	return d
}

// shardCounts are the scaling points; throughput should grow with shard
// count up to the core count of the machine (a single shard serializes
// every tree access behind one latch).
var shardCounts = []int{1, 2, 4, 8}

// BenchmarkShardedGetParallel measures read throughput: every goroutine
// issues current-version point reads over the shared preloaded key set.
// Reads of distinct shards share nothing but the atomic clock.
func BenchmarkShardedGetParallel(b *testing.B) {
	const nKeys = 4096
	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			d := benchShardedDB(b, shards, nKeys)
			var seq atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(int64(seq.Add(1))))
				for pb.Next() {
					k := workload.SpreadKey(uint64(rng.Intn(nKeys)))
					if _, _, err := d.Get(k); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkShardedGetPutParallel measures mixed 50/50 Get/Put
// throughput. Each goroutine updates its own slice of the key space
// (no-wait lock conflicts would otherwise dominate), so the contention
// measured is structural: shard latches and the serialized commit path.
func BenchmarkShardedGetPutParallel(b *testing.B) {
	const nKeys = 4096
	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			d := benchShardedDB(b, shards, nKeys)
			var seq atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := seq.Add(1)
				rng := rand.New(rand.NewSource(int64(id)))
				i := 0
				for pb.Next() {
					i++
					if i%2 == 0 {
						k := workload.SpreadKey(uint64(rng.Intn(nKeys)))
						if _, _, err := d.Get(k); err != nil {
							b.Error(err)
							return
						}
						continue
					}
					k := workload.SpreadKey(id<<32 | uint64(rng.Intn(1024)))
					err := d.Update(func(tx *txn.Txn) error {
						return tx.Put(k, []byte("benchmark-payload-0123456789abcdef"))
					})
					if err != nil && !errors.Is(err, txn.ErrLockConflict) {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkShardedGetPutParallelDurable is the durable-mode twin of
// BenchmarkShardedGetPutParallel: every commit is write-ahead logged and
// fsynced before acknowledgment, and group commit batches the
// concurrently-arriving committers into shared fsyncs. The reported
// commits/sync metric is the amortization factor (>= 2 at 8+ workers is
// the acceptance bar; RunParallel uses GOMAXPROCS goroutines).
func BenchmarkShardedGetPutParallelDurable(b *testing.B) {
	const nKeys = 4096
	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			d, err := db.Open(db.Config{Shards: shards, Dir: b.TempDir(), CheckpointBytes: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			// Preload in multi-key transactions: one fsync per 64 keys
			// keeps the untimed setup cheap.
			for base := 0; base < nKeys; base += 64 {
				err := d.Update(func(tx *txn.Txn) error {
					for i := base; i < base+64 && i < nKeys; i++ {
						if err := tx.Put(workload.SpreadKey(uint64(i)), []byte("preload-payload-0123456789abcdef")); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			base := d.Stats()
			var seq atomic.Uint64
			// At least 8 committers even on few cores: goroutines
			// blocked in the leader's fsync syscall free the scheduler
			// for the others, which is exactly what group commit feeds
			// on.
			b.SetParallelism((8 + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := seq.Add(1)
				rng := rand.New(rand.NewSource(int64(id)))
				i := 0
				for pb.Next() {
					i++
					if i%2 == 0 {
						k := workload.SpreadKey(uint64(rng.Intn(nKeys)))
						if _, _, err := d.Get(k); err != nil {
							b.Error(err)
							return
						}
						continue
					}
					k := workload.SpreadKey(id<<32 | uint64(rng.Intn(1024)))
					err := d.Update(func(tx *txn.Txn) error {
						return tx.Put(k, []byte("benchmark-payload-0123456789abcdef"))
					})
					if err != nil && !errors.Is(err, txn.ErrLockConflict) {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			st := d.Stats()
			if syncs := st.WAL.Syncs - base.WAL.Syncs; syncs > 0 {
				b.ReportMetric(float64(st.WAL.Records-base.WAL.Records)/float64(syncs), "commits/sync")
			}
		})
	}
}

// BenchmarkGroupCommit measures the pure durable commit path: every
// worker commits single-key transactions back to back, so throughput is
// bounded by how well fsyncs amortize across committers. Reported
// metric: commit records per fsync.
func BenchmarkGroupCommit(b *testing.B) {
	d, err := db.Open(db.Config{Shards: 8, Dir: b.TempDir(), CheckpointBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	base := d.Stats().WAL
	var seq atomic.Uint64
	b.SetParallelism((8 + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := seq.Add(1)
		i := 0
		for pb.Next() {
			i++
			k := workload.SpreadKey(id<<32 | uint64(i%4096))
			err := d.Update(func(tx *txn.Txn) error {
				return tx.Put(k, []byte("group-commit-payload-0123456789"))
			})
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	st := d.Stats().WAL
	if syncs := st.Syncs - base.Syncs; syncs > 0 {
		b.ReportMetric(float64(st.Records-base.Records)/float64(syncs), "commits/sync")
	}
}

// BenchmarkShardedSnapshotScanParallel measures wait-free-timestamp
// snapshot scans (§4.1's backup path) racing against nothing: scans of
// all shards under shared latches.
func BenchmarkShardedSnapshotScanParallel(b *testing.B) {
	const nKeys = 2048
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			d := benchShardedDB(b, shards, nKeys)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					snap := d.ReadOnly()
					if _, err := snap.Scan(nil, record.InfiniteBound()); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// --- Micro-benchmarks of the core TSB-tree operations ---

func benchTree(b testing.TB, policy core.Policy, preload int, u float64) *core.Tree {
	b.Helper()
	mag := storage.NewMagneticDisk(4096, storage.CostModel{})
	worm := storage.NewWORMDisk(storage.WORMConfig{SectorSize: 1024})
	tree, err := core.New(mag, worm, core.Config{Policy: policy, MaxKeySize: 32})
	if err != nil {
		b.Fatal(err)
	}
	ts := record.Timestamp(0)
	for i := 0; i < preload; i++ {
		ts++
		key := i
		if u > 0 && i%2 == 0 {
			key = i % int(float64(preload)*(1-u)+1)
		}
		err := tree.Insert(record.Version{
			Key:   record.StringKey(fmt.Sprintf("key%08d", key)),
			Time:  ts,
			Value: []byte("benchmark-payload-0123456789abcdef"),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	return tree
}

func BenchmarkInsertSequential(b *testing.B) {
	tree := benchTree(b, core.PolicyLastUpdate, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := tree.Insert(record.Version{
			Key:   record.StringKey(fmt.Sprintf("key%08d", i)),
			Time:  record.Timestamp(i + 1),
			Value: []byte("benchmark-payload-0123456789abcdef"),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertUpdateHeavy(b *testing.B) {
	tree := benchTree(b, core.PolicyLastUpdate, 1000, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := tree.Insert(record.Version{
			Key:   record.StringKey(fmt.Sprintf("key%08d", i%1000)),
			Time:  record.Timestamp(1001 + i),
			Value: []byte("benchmark-payload-0123456789abcdef"),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetCurrent(b *testing.B) {
	tree := benchTree(b, core.PolicyLastUpdate, 5000, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tree.Get(record.StringKey(fmt.Sprintf("key%08d", i%1000))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetAsOf(b *testing.B) {
	tree := benchTree(b, core.PolicyLastUpdate, 5000, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := tree.GetAsOf(
			record.StringKey(fmt.Sprintf("key%08d", i%1000)),
			record.Timestamp(1+i%5000))
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotScan(b *testing.B) {
	tree := benchTree(b, core.PolicyLastUpdate, 5000, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := tree.ScanAsOf(record.Timestamp(1+i%5000), nil, record.InfiniteBound())
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHistory(b *testing.B) {
	tree := benchTree(b, core.PolicyLastUpdate, 5000, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.History(record.StringKey(fmt.Sprintf("key%08d", i%1000))); err != nil {
			b.Fatal(err)
		}
	}
}

// cursorBenchDB builds a database holding versions versions across
// versions/5 keys, shared by the cursor benchmarks.
func cursorBenchDB(b *testing.B, versions int) *db.DB {
	b.Helper()
	d, err := db.Open(db.Config{LeafCapacity: 512, IndexCapacity: 1024})
	if err != nil {
		b.Fatal(err)
	}
	keys := versions / 5
	for r := 0; r < 5; r++ {
		for base := 0; base < keys; base += 100 {
			err := d.Update(func(tx *txn.Txn) error {
				for i := base; i < base+100 && i < keys; i++ {
					k := record.Uint64Key(uint64(i) * 0x9e3779b97f4a7c15)
					if err := tx.Put(k, []byte("benchpayload")); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	return d
}

// BenchmarkCursorLimit1 measures the headline win of the streaming read
// API: "first row of a big snapshot" is O(tree-depth) page reads, not a
// materialized scan. Reported metric: buffer-pool page fetches per op.
func BenchmarkCursorLimit1(b *testing.B) {
	d := cursorBenchDB(b, 100_000)
	fetches := func() uint64 { st := d.Stats().Buffer; return st.Hits + st.Misses }
	start := fetches()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := d.Cursor(nil, record.InfiniteBound(), db.ScanOptions{Limit: 1})
		if !cur.Next() {
			b.Fatal(cur.Err())
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(fetches()-start)/float64(b.N), "pagereads/op")
}

// BenchmarkCursorStream iterates a full 20k-key snapshot through the
// cursor, the streaming counterpart of BenchmarkSnapshotScan's
// materializing path at the db layer.
func BenchmarkCursorStream(b *testing.B) {
	d := cursorBenchDB(b, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		cur := d.Cursor(nil, record.InfiniteBound(), db.ScanOptions{})
		for cur.Next() {
			n++
		}
		if cur.Err() != nil {
			b.Fatal(cur.Err())
		}
		if n != 20_000 {
			b.Fatalf("streamed %d versions", n)
		}
	}
}

// BenchmarkPagedCheckpoint measures the incremental paged checkpoint —
// the acceptance property of the paged-device subsystem: after a fixed
// small number of updates, a checkpoint's cost tracks the dirty-page
// set, not the database size. Run the two sizes and compare ms/op and
// flushed-pages/op: both should stay flat while db-pages quadruples.
func BenchmarkPagedCheckpoint(b *testing.B) {
	for _, size := range []int{4_000, 16_000} {
		b.Run(fmt.Sprintf("versions=%d", size), func(b *testing.B) {
			d, err := db.Open(db.Config{
				Dir: b.TempDir(), Shards: 2, CheckpointBytes: -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			for base := 0; base < size; base += 256 {
				err := d.Update(func(tx *txn.Txn) error {
					for i := base; i < base+256 && i < size; i++ {
						k := workload.SpreadKey(uint64(i))
						if err := tx.Put(k, []byte("paged-checkpoint-payload-0123456789")); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			if err := d.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			flushedBase := d.Stats().Buffer.FlushedPages
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				for i := 0; i < 16; i++ {
					k := workload.SpreadKey(uint64(i * (size/16 + 1)))
					if err := d.Update(func(tx *txn.Txn) error { return tx.Put(k, []byte("dirty")) }); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if err := d.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := d.Stats()
			b.ReportMetric(float64(st.Buffer.FlushedPages-flushedBase)/float64(b.N), "flushedpages/op")
			b.ReportMetric(float64(st.Magnetic.PagesInUse), "db-pages")
		})
	}
}

// BenchmarkMigrator is the background time-split migrator's acceptance
// benchmark: the same paced update-heavy workload (8 workers, real
// write-once burn latency) with migration inline vs background, run once
// per iteration (E14 always measures both modes, so one run feeds all
// four metrics). Background mode must cut put p99 and split-latch time —
// the burn leaves the shard's write latch. The full table (p50,
// throughput, migration counts) is `tsbench -exp E14`.
func BenchmarkMigrator(b *testing.B) {
	sums := map[string]float64{}
	for n := 0; n < b.N; n++ {
		rs, _, err := experiments.E14MigrationLatency(4, 8, 500)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rs {
			sums[r.Mode+"-put-p99-us"] += r.PutP99Micros
			sums[r.Mode+"-latch-ms"] += r.SplitLatchMillis
		}
	}
	for name, sum := range sums {
		b.ReportMetric(sum/float64(b.N), name)
	}
}
