// Command tsbench runs the reproduction's experiments (E1-E17, see
// docs/ARCHITECTURE.md for the layers they drive) and prints their tables: the measurement plan stated in §3.2/§5 of
// Lomet & Salzberg (SIGMOD 1989) plus the paper's qualitative claims, the
// concurrent sharded-engine scaling run (E10), the group-commit
// fsync-amortization run (E11, durable mode in a temp directory), the
// WORM burn-rate run (E12), the paged checkpoint-duration run (E13,
// paged durable mode in a temp directory), the background-migration
// latency run (E14, inline vs background time splits under real
// write-once burn latency), the maintenance-economy run (E15, fuzzy
// checkpoint pause under concurrent writers plus compaction reclaim),
// and the closed-loop service-layer run (E16, pipelined client
// connections over loopback TCP against the tsbserve protocol,
// migration inline vs background), and the temporal query engine run
// (E17, operator-composed filter pushdown vs materialize-then-filter
// page reads, plus parallel per-shard scan speedup).
//
// Usage:
//
//	tsbench [-exp all|E1,E2,...] [-ops N] [-value BYTES] [-seed N]
//	        [-shards 1,2,4,8] [-workers N] [-conns N] [-connwindow N]
//	        [-benchjson FILE]
//
// -benchjson writes the E10 throughput points as JSON — plus the cursor
// page-read, put-latency, group-commit, worm-burn-rate,
// checkpoint-duration, migration-latency, maintenance, and served
// closed-loop trajectory points — so CI can archive a perf trajectory
// across commits covering writes, reads, durability, checkpoint cost,
// migration latency, the maintenance economy (checkpoint pause, waste
// reclaimed), and the network service layer (served throughput and
// p99).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/workload"
)

func main() {
	expFlag := flag.String("exp", "all", "experiments to run (comma-separated E1..E11, or 'all')")
	ops := flag.Int("ops", 20000, "operations per run")
	value := flag.Int("value", 32, "record payload bytes")
	seed := flag.Int64("seed", 1, "workload seed")
	dist := flag.String("dist", "uniform", "update-target distribution: uniform, zipf, sequential")
	shards := flag.String("shards", "1,2,4,8", "shard counts for the concurrent experiment (comma-separated)")
	workers := flag.Int("workers", 8, "concurrent workers for the E10 mixed workload")
	conns := flag.Int("conns", 100, "client connections for the E16 closed-loop server run")
	connWindow := flag.Int("connwindow", 8, "per-connection in-flight request window for E16")
	benchJSON := flag.String("benchjson", "", "write E10 throughput results to this file as JSON")
	flag.Parse()

	var d workload.Distribution
	switch *dist {
	case "uniform":
		d = workload.Uniform
	case "zipf":
		d = workload.Zipf
	case "sequential":
		d = workload.Sequential
	default:
		fmt.Fprintf(os.Stderr, "tsbench: unknown distribution %q\n", *dist)
		os.Exit(2)
	}

	shardCounts, err := parseShards(*shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsbench:", err)
		os.Exit(2)
	}

	want := map[string]bool{}
	if *expFlag == "all" {
		for i := 1; i <= 17; i++ {
			want[fmt.Sprintf("E%d", i)] = true
		}
	} else {
		for _, e := range strings.Split(*expFlag, ",") {
			want[strings.ToUpper(strings.TrimSpace(e))] = true
		}
	}
	p := experiments.Params{Ops: *ops, ValueSize: *value, Seed: *seed, Dist: d}

	if err := run(want, p, shardCounts, *workers, *conns, *connWindow, *benchJSON); err != nil {
		fmt.Fprintln(os.Stderr, "tsbench:", err)
		os.Exit(1)
	}
}

func parseShards(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad shard count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func run(want map[string]bool, p experiments.Params, shardCounts []int, workers, conns, connWindow int, benchJSON string) error {
	needSweep := want["E1"] || want["E2"] || want["E3"] || want["E4"] ||
		want["E6"] || want["E7"] || want["E8"]
	var sweep *experiments.Sweep
	if needSweep {
		fmt.Printf("running space sweep: %d ops x %d policies x %d update fractions ...\n",
			p.Ops, len(experiments.PolicyNames), len(experiments.UpdateFractions))
		var err error
		sweep, err = experiments.RunSweep(p)
		if err != nil {
			return err
		}
	}
	if want["E1"] {
		fmt.Println(sweep.E1TotalSpace())
	}
	if want["E2"] {
		fmt.Println(sweep.E2CurrentSpace())
	}
	if want["E3"] {
		fmt.Println(sweep.E3Redundancy())
	}
	if want["E4"] {
		fmt.Println(sweep.E4CostFunction(0.6))
	}
	if want["E5"] {
		_, tab, err := experiments.E5SearchIO(p)
		if err != nil {
			return err
		}
		fmt.Println(tab)
	}
	if want["E6"] {
		fmt.Println(sweep.E6SectorUtilization())
	}
	if want["E7"] {
		fmt.Println(sweep.E7SplitTimeChoice())
	}
	if want["E8"] {
		fmt.Println(sweep.E8IndexSplits())
	}
	if want["E9"] {
		_, tab, err := experiments.E9ReadOnly(4, 4, 200, 50)
		if err != nil {
			return err
		}
		fmt.Println(tab)
	}
	opsPerWorker := p.Ops / workers
	if opsPerWorker == 0 {
		opsPerWorker = 1
	}
	var e10 []benchPoint
	if want["E10"] {
		results, tab, err := experiments.E10Concurrent(shardCounts, workers, opsPerWorker, p.Seed, p.ValueSize)
		if err != nil {
			return err
		}
		fmt.Println(tab)
		e10 = e10Points(results)
	}
	archive := benchJSON != ""
	// One group-commit run serves both the printed E11 table and the
	// archived trajectory point.
	var gcPoint *benchPoint
	if want["E11"] || archive {
		dir, err := os.MkdirTemp("", "tsbench-e11-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		gc, tab, err := experiments.E11GroupCommit(dir, workers, opsPerWorker)
		if err != nil {
			return err
		}
		if want["E11"] {
			fmt.Println(tab)
		}
		gcPoint = &benchPoint{
			Experiment: "group-commit", Shards: 8, Workers: gc.Workers, Ops: gc.Commits,
			ElapsedSec: gc.Elapsed.Seconds(), OpsPerSec: gc.OpsPerSec,
			RecordsPerSync: gc.RecordsPerSync,
		}
	}
	// Like the group-commit point: one E12/E13 run serves both the
	// printed table and the archived trajectory point.
	var burnPoint, ckptPoint *benchPoint
	if want["E12"] || archive {
		burnOps := min(p.Ops, 5000)
		burn, tab, err := experiments.WormBurnRate(burnOps)
		if err != nil {
			return err
		}
		if want["E12"] {
			fmt.Println(tab)
		}
		burnPoint = &benchPoint{
			Experiment: "worm-burn-rate", Shards: 1, Ops: burn.Ops,
			BurnedBytesPerOp: burn.BurnedPerOp, WormUtilization: burn.Utilization,
		}
	}
	if want["E13"] || archive {
		dir, err := os.MkdirTemp("", "tsbench-e13-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		large := min(max(p.Ops, 2000), 20_000)
		rows, tab, err := experiments.CheckpointDuration(dir, []int{large / 4, large}, 16)
		if err != nil {
			return err
		}
		if want["E13"] {
			fmt.Println(tab)
		}
		ckpt := rows[len(rows)-1]
		ckptPoint = &benchPoint{
			Experiment: "checkpoint-duration", Shards: 2, Ops: uint64(ckpt.Versions),
			CheckpointMillis: ckpt.Millis, FlushedPages: uint64(ckpt.DirtyFlushed),
		}
	}
	// E14 serves the printed table and two archived points (one per
	// migration mode; benchcmp keys on experiment name + shards).
	var migPoints []benchPoint
	if want["E14"] || archive {
		migOps := min(max(p.Ops/8, 250), 2000)
		rows, tab, err := experiments.E14MigrationLatency(4, workers, migOps)
		if err != nil {
			return err
		}
		if want["E14"] {
			fmt.Println(tab)
		}
		for _, r := range rows {
			migPoints = append(migPoints, benchPoint{
				Experiment: "migration-latency-" + r.Mode, Shards: r.Shards,
				Workers: r.Workers, Ops: r.Ops,
				ElapsedSec: r.Elapsed.Seconds(), OpsPerSec: r.OpsPerSec,
				PutP99Micros: r.PutP99Micros, SplitLatchMillis: r.SplitLatchMillis,
			})
		}
	}
	// E15 serves the printed table and two archived points: the
	// compaction reclaim (higher is better) and the fuzzy checkpoint
	// pause under writers (lower is better).
	var maintPoints []benchPoint
	if want["E15"] || archive {
		dir, err := os.MkdirTemp("", "tsbench-e15-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		maintOps := min(max(p.Ops/8, 250), 2000)
		res, tab, err := experiments.E15Maintenance(dir, workers, maintOps)
		if err != nil {
			return err
		}
		if want["E15"] {
			fmt.Println(tab)
		}
		maintPoints = []benchPoint{
			{Experiment: "maintenance-compaction", Shards: 2, Workers: workers, Ops: res.Ops,
				WasteReclaimedBytes: res.ReclaimedBytes, WormUtilization: res.UtilAfter},
			{Experiment: "maintenance-ckpt-pause", Shards: 2, Workers: workers, Ops: res.Ops,
				CkptPauseMillis: res.AvgPauseMillis},
		}
	}
	// E16 serves the printed table and four archived points: served
	// throughput and served client p99 per migration mode.
	var servePoints []benchPoint
	if want["E16"] || archive {
		servOps := min(max(p.Ops/max(conns, 1), 50), 500)
		rows, tab, err := experiments.E16ClosedLoop(conns, connWindow, servOps)
		if err != nil {
			return err
		}
		if want["E16"] {
			fmt.Println(tab)
		}
		for _, r := range rows {
			servePoints = append(servePoints,
				benchPoint{Experiment: "server-throughput-" + r.Mode, Shards: 8,
					Workers: r.Conns, Ops: r.Ops,
					ElapsedSec: r.Elapsed.Seconds(), OpsPerSec: r.OpsPerSec},
				benchPoint{Experiment: "server-p99-us-" + r.Mode, Shards: 8,
					Workers: r.Conns, Ops: r.Ops,
					ServerP99Micros: r.P99Micros})
		}
	}
	// E17 serves the printed table and two archived points: the pushdown
	// page-read cost (lower is better; strictly below the materialized
	// plan's) and the parallel-scan speedup (higher is better).
	var queryPoints []benchPoint
	if want["E17"] || archive {
		qKeys := min(max(p.Ops, 2000), 25_000)
		res, tab, err := experiments.E17QueryEngine(8, qKeys, 5)
		if err != nil {
			return err
		}
		if want["E17"] {
			fmt.Println(tab)
		}
		queryPoints = []benchPoint{
			{Experiment: "query-pushdown", Shards: res.Shards, Ops: uint64(res.Versions),
				PageReads: float64(res.PagesComposed)},
			{Experiment: "query-parallel", Shards: res.Shards, Ops: uint64(res.Versions),
				ElapsedSec: res.ParallelMillis / 1000, QuerySpeedup: res.Speedup},
		}
	}
	if archive {
		extra, err := trajectoryPoints(p)
		if err != nil {
			return err
		}
		points := append(e10, extra...)
		points = append(points, *burnPoint, *ckptPoint, *gcPoint)
		points = append(points, migPoints...)
		points = append(points, maintPoints...)
		points = append(points, servePoints...)
		points = append(points, queryPoints...)
		if err := writeBenchJSON(benchJSON, points); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", benchJSON)
	}
	return nil
}

// trajectoryPoints runs the small extra measurements archived alongside
// the E10 throughput curve: cursor page reads (the streaming-read
// headline) and a single-shard put-latency baseline — so the perf
// trajectory covers reads and latency, not just write throughput. (The
// group-commit, worm-burn-rate, and checkpoint-duration points are each
// measured once in run — serving the printed table too — and appended
// there.)
func trajectoryPoints(p experiments.Params) ([]benchPoint, error) {
	reads, err := experiments.CursorPageReads(20_000, 50)
	if err != nil {
		return nil, fmt.Errorf("cursor page reads: %w", err)
	}
	putOps := min(p.Ops, 2000)
	lat, err := experiments.PutLatency(putOps)
	if err != nil {
		return nil, fmt.Errorf("put latency: %w", err)
	}
	return []benchPoint{
		{Experiment: "cursor-limit1", Shards: 1, Ops: 50, PageReads: reads},
		{Experiment: "put-latency", Shards: 1, Workers: 1, Ops: uint64(putOps), AvgPutMicros: lat},
	}, nil
}

// benchPoint is the archived perf-trajectory record: one E10 throughput
// point per shard count, plus the cursor page-read, put-latency, and
// group-commit points (each with its own metric fields).
type benchPoint struct {
	Experiment string  `json:"experiment"`
	Shards     int     `json:"shards"`
	Workers    int     `json:"workers"`
	Ops        uint64  `json:"ops"`
	Conflicts  uint64  `json:"conflicts"`
	ElapsedSec float64 `json:"elapsed_sec"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	// PageReads is buffer-pool fetches per Limit=1 cursor open
	// (cursor-limit1 points).
	PageReads float64 `json:"page_reads,omitempty"`
	// AvgPutMicros is the mean single-shard committed-write latency
	// (put-latency points).
	AvgPutMicros float64 `json:"avg_put_us,omitempty"`
	// RecordsPerSync is commit records per fsync (group-commit points).
	RecordsPerSync float64 `json:"records_per_sync,omitempty"`
	// BurnedBytesPerOp is write-once capacity consumed per commit and
	// WormUtilization its payload fraction (worm-burn-rate points).
	BurnedBytesPerOp float64 `json:"burned_b_per_op,omitempty"`
	WormUtilization  float64 `json:"worm_utilization,omitempty"`
	// CheckpointMillis is the duration of a paged checkpoint after a
	// fixed small dirty set, FlushedPages how many pages it wrote
	// (checkpoint-duration points): O(dirty), not O(database).
	CheckpointMillis float64 `json:"checkpoint_ms,omitempty"`
	FlushedPages     uint64  `json:"flushed_pages,omitempty"`
	// PutP99Micros is the tail put latency and SplitLatchMillis the time
	// spent splitting under shard write latches (migration-latency
	// points, one per mode: background must beat inline on both).
	PutP99Micros     float64 `json:"put_p99_us,omitempty"`
	SplitLatchMillis float64 `json:"split_latch_ms,omitempty"`
	// WasteReclaimedBytes is the write-once capacity compaction handed
	// back after aging the directory (maintenance-compaction points;
	// higher is better). CkptPauseMillis is the mean commit-posting
	// pause per checkpoint with writers running (maintenance-ckpt-pause
	// points; the fuzzy per-flush-group capture keeps it low).
	WasteReclaimedBytes uint64  `json:"waste_reclaimed_b,omitempty"`
	CkptPauseMillis     float64 `json:"ckpt_pause_ms,omitempty"`
	// ServerP99Micros is the client-observed send-to-response p99 of
	// the closed-loop served run (server-p99-us points, one per
	// migration mode; lower is better).
	ServerP99Micros float64 `json:"server_p99_us,omitempty"`
	// QuerySpeedup is serial/parallel full-scan wall-clock for the
	// operator-composed query engine (query-parallel points; higher is
	// better). The query-pushdown points reuse PageReads: buffer fetches
	// for the pushed-down low-selectivity filter (lower is better).
	QuerySpeedup float64 `json:"query_speedup,omitempty"`
}

// e10Points converts the E10 results to archive records.
func e10Points(results []experiments.E10Result) []benchPoint {
	points := make([]benchPoint, 0, len(results))
	for _, r := range results {
		points = append(points, benchPoint{
			Experiment: "E10-concurrent-mixed",
			Shards:     r.Shards,
			Workers:    r.Workers,
			Ops:        r.Ops,
			Conflicts:  r.Conflicts,
			ElapsedSec: r.Elapsed.Seconds(),
			OpsPerSec:  r.OpsPerSec,
		})
	}
	return points
}

func writeBenchJSON(path string, points []benchPoint) error {
	data, err := json.MarshalIndent(points, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
