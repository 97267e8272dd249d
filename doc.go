// Package repro is a from-scratch Go reproduction of David Lomet & Betty
// Salzberg, "Access Methods for Multiversion Data", SIGMOD 1989 — the
// Time-Split B-tree (TSB-tree).
//
// docs/ARCHITECTURE.md is the orientation document: the layer map, the
// latch hierarchy, the durability contract (paged devices, WAL, and
// metadata-only v4 checkpoints), the background-migration state machine with its
// admissible interleavings, the maintenance economy (the background
// scheduler, WORM compaction, and the fuzzy per-shard checkpoint
// capture), and the statically enforced invariants: cmd/tsbvet is a
// `go vet -vettool` analyzer suite (internal/lint) that checks the
// latch hierarchy, the no-I/O-under-a-data-latch rule,
// release-on-every-path, sync-before-rename, and the sticky-error
// discipline against //tsb: directives in the source — see
// ARCHITECTURE.md ("Statically enforced invariants") for the rules and
// their escape hatches.
//
// The system lives in internal/ (docs/ARCHITECTURE.md has the layer map):
//
//   - internal/core: the TSB-tree itself (the paper's contribution);
//   - internal/wobt: Easton's Write-Once B-tree, the §2 baseline;
//   - internal/bplus: a single-version B+-tree comparator;
//   - internal/storage: simulated magnetic and write-once devices (and
//     the device contracts both backends satisfy);
//   - internal/pagestore: the file-backed devices of the durable mode —
//     a CRC-framed mutable page file with a rollback journal,
//     and an append-only burn file with torn-tail detection;
//   - internal/buffer, internal/record: substrates (the buffer pool
//     doubles as the durable mode's dirty-page table; the record package
//     also defines the shard-boundary key codec);
//   - internal/txn, internal/secondary, internal/db: the §4/§3.6
//     transaction and secondary-index layers and the engine facade;
//   - internal/query: the temporal query engine — §2.5's query classes
//     as composable streaming operators (filter with key-range
//     pushdown, project, merge join, secondary-index join, group-by,
//     limit) over snapshot/window/history/diff sources, compiled
//     against a snapshot and run serially or one-cursor-per-shard with
//     an ordered merge (db.Query/db.QueryAt embedded, OpOpenQuery/
//     OpQueryFetch over the wire; see the "Temporal query engine"
//     section of docs/ARCHITECTURE.md for the operator contract, the
//     pushdown rules, and the one-latch invariant);
//   - internal/wal: the durability subsystem — a CRC-framed,
//     fsync-batched write-ahead log of commit records plus the
//     checkpoint metadata format;
//   - internal/workload, internal/metrics, internal/experiments: the
//     evaluation harness (experiments E1-E17, printed by cmd/tsbench);
//   - internal/obs: the observability substrate — atomic counters,
//     gauges, and lock-free latency histograms behind a registry with
//     Prometheus-text and JSON exposition, plus ring-buffer event and
//     slow-op logs tracing background jobs; tsbserve's -metrics-addr
//     serves the live surface, and every layer above registers its
//     instruments into one registry (see the "Observability" section
//     of docs/ARCHITECTURE.md for the metric scheme);
//   - internal/server: the network service layer — a pipelined binary
//     protocol over TCP (server/wire), session read snapshots, leased
//     server-side query cursors (every served scan is a query spec),
//     per-tenant key-prefix namespaces, and
//     watermark-based admission shedding — with the Go client in
//     server/client and the daemon in cmd/tsbserve (see the "Service
//     layer" section of docs/ARCHITECTURE.md).
//
// The engine is concurrent and sharded: db.Config.Shards partitions the
// key space across N independent TSB-trees (key-range sharding, so range
// queries still merge in key order), each behind a reader/writer latch,
// with a shared wait-free commit clock and a no-wait lock table — see the
// internal/db package documentation for the exact guarantees. Shards: 1
// (the default) reproduces the paper's single-tree system; higher counts
// scale throughput with available cores (experiment E10,
// BenchmarkSharded* in bench_test.go).
//
// The engine is durable when opened with db.Config.Dir: committed =
// logged + fsynced — a commit is acknowledged only once its redo record
// (the stamped write set) is durable in the write-ahead log, and group
// commit coalesces concurrently-arriving committers into one log append,
// one fsync, and one clock advance (BenchmarkGroupCommit reports the
// commits-per-fsync amortization). The two storage devices are
// themselves disk files in Dir (internal/pagestore) — the paper's
// magnetic/WORM hierarchy made real — and a checkpoint flushes dirty
// pages through a rollback journal: O(dirty pages) checkpoints
// (BenchmarkPagedCheckpoint) that truncate the log without stopping
// writers, metadata-only recovery that replays the log tail up to the
// first torn frame, torn flushes restored from the journal, torn WORM
// tails clipped on reopen.
// See the internal/db package documentation for the exact durability
// contract, and `tsbdump -waldir DIR` / `tsbdump -pagedir DIR` to
// inspect a durable directory.
//
// Historical-node migration can leave the insert path: with
// db.Config.BackgroundMigration an insert that would time split a leaf —
// burning its historical half to the slow write-once device while
// holding the shard's write latch — instead marks the leaf and returns
// fast; a per-shard background worker captures the historical half under
// a short read latch, burns it with no latch held, and swaps the
// rewritten leaf in under a short write latch (mark → copying → swapped;
// see docs/ARCHITECTURE.md for the state machine and its admissible
// interleavings). The consistency contract: no version is ever
// unreachable, readers see the pre- or post-swap node and never a torn
// one, and a database drained after each operation is byte-identical to
// an inline-split one. Experiment E14 (`tsbench -exp E14`,
// BenchmarkMigrator) measures the payoff under real burn latency:
// order-of-magnitude reductions in put p99 and in split-under-latch
// time. Stats().Migrator reports queue depth, nodes migrated, bytes
// burned, and abandoned burns.
//
// The same machinery keeps an aging database healthy: a per-DB
// maintenance scheduler runs incremental checkpoints
// (db.Config.CheckpointBytes) and — in paged mode — WORM compaction
// (db.Config.CompactDeadBytes, or DB.Compact on demand), which copies
// the live tail of the burn file forward, rewrites node addresses under
// short write latches, and truncates the dead prefix region away so
// Stats().Device utilization recovers. The paged checkpoint's capture
// is fuzzy: per-shard boundary LSNs let each shard's image and dirty
// pages be captured under only that shard's read latch, so the
// commit-posting pause stays flat as the database grows. Experiment E15
// (`tsbench -exp E15`) measures both — the per-checkpoint pause with
// writers running and the capacity compaction reclaims after aging; see
// the "maintenance economy" section of docs/ARCHITECTURE.md.
//
// Range reads stream: db.Cursor / txn.ReadTxn.Cursor (and the iter.Seq2
// form, Range) yield a snapshot lazily, page by page, with
// ScanOptions{Limit, Reverse, After, At, From, To} — pagination,
// descending order, per-scan time travel, and temporal windows. Every
// scan is a sequence of two page primitives, ScanPageAsOf (one leaf's
// visible versions at a time) and ScanRangePage (one current leaf's keys
// over a time window), in either direction: a cursor holds no latch
// between Next calls, and each Next read-latches at most one shard for
// one page, so a Limit=1 read over a 100k-version snapshot costs
// O(tree height) page reads (BenchmarkCursorLimit1), forward or reverse,
// snapshot or window. Composed queries (db.Query, internal/query) stack
// streaming operators on those cursors and inherit the contract
// unchanged — history, diff, and secondary-index fetches are query
// specs, not separate helpers; experiment E17 (`tsbench -exp E17`)
// measures the filter pushdown's page-read gap and the parallel
// per-shard scan speedup.
//
// The benchmarks in bench_test.go regenerate every experiment and the
// shard-scaling curves; the binaries under cmd/ print the experiment
// tables (tsbench, including the concurrent E10 run, the served
// closed-loop E16 run, and a -benchjson perf-trajectory export),
// compare archived perf points across runs (benchcmp), replay the
// paper's figures (figures), dump tree structure — including a
// cursor-streamed snapshot sample — (tsbdump), and serve the engine
// over the network with graceful SIGTERM drain (tsbserve).
package repro
