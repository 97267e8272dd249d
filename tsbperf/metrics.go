package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/db"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// row is one reported metric; samples > 0 is printed with it.
type row struct {
	name    string
	value   float64
	unit    string
	samples int
}

func (r row) print(out io.Writer, note string) {
	if r.samples > 0 {
		note = fmt.Sprintf(" samples=%d%s", r.samples, note)
	}
	fmt.Fprintf(out, "  %-32s %14.4f %-6s%s\n", r.name, r.value, r.unit, note)
}

// phase holds what the run observed around the measured phase.
type phase struct {
	slices   []int64         // slice bounds, run-relative ns
	cpu      []time.Duration // process CPU time at each bound
	a, b     snap            // at the start and end of the measured phase
	c        snap            // after the direct calls of a traced run
	reopened snap            // the reopened database after verification
	space    db.DeviceStats  // device space once the load stopped
	rssMB    float64
}

// calls is the measured phase as the client saw it: every call sent
// after it began and answered before it ended.
type calls struct {
	attempted, failed uint64
	okPerSlice        []float64
	lat               [numKinds][]int64 // client latency, ns, successful calls
	sliceLat          [][numKinds][]int64
	rows, puts        int
}

func observe(loops []*connLoop, ph *phase) calls {
	start, stop := ph.slices[0], ph.slices[len(ph.slices)-1]
	win := calls{okPerSlice: make([]float64, len(ph.slices)-1), sliceLat: make([][numKinds][]int64, len(ph.slices)-1)}
	for _, lp := range loops {
		for _, r := range lp.recs {
			if r.sent < start || r.done >= stop {
				continue
			}
			win.attempted++
			if !r.ok {
				win.failed++
				continue
			}
			i, _ := slices.BinarySearch(ph.slices, r.done+1)
			win.okPerSlice[i-1]++
			win.lat[r.kind] = append(win.lat[r.kind], r.done-r.sent)
			win.sliceLat[i-1][r.kind] = append(win.sliceLat[i-1][r.kind], r.done-r.sent)
			switch r.kind {
			case opScan:
				win.rows += int(r.rows)
			case opPut:
				win.puts++
			}
		}
	}
	for k := range win.lat {
		slices.Sort(win.lat[k])
		for i := range win.sliceLat {
			slices.Sort(win.sliceLat[i][k])
		}
	}
	return win
}

// percentile is the nearest-rank percentile of sorted ns samples, in
// microseconds.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)]) / 1e3
}

func mean(ns []int64) float64 {
	var s float64
	for _, v := range ns {
		s += float64(v)
	}
	return s / float64(max(len(ns), 1)) / 1e3
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sliceRates is the completed-call rate of each slice in ops/s.
func sliceRates(win calls, ph *phase) []float64 {
	out := make([]float64, len(win.okPerSlice))
	for i, n := range win.okPerSlice {
		out[i] = n / (float64(ph.slices[i+1]-ph.slices[i]) / 1e9)
	}
	return out
}

// endToEnd derives the gated end-to-end metrics: set-up time, the
// share of calls that succeeded, and the write and space amplification
// of the measured phase. The last three repeat within a few percent
// from run to run on a shared host; the served timings, which do not,
// are printed beside them.
func endToEnd(w workload, loops []*connLoop, ph *phase, models []*model, setupS []float64, res *result, out io.Writer) []row {
	win := observe(loops, ph)
	res.Attempted, res.Failed = win.attempted, win.failed
	d := delta{ph.a, ph.b}
	written := float64(d.b.st.WAL.Bytes-d.a.st.WAL.Bytes) +
		float64(d.b.st.Magnetic.Writes-d.a.st.Magnetic.Writes)*pageSize +
		float64(d.b.st.WORM.SectorsBurned-d.a.st.WORM.SectorsBurned)*sectorSize
	acked := float64(win.puts) * float64(len(models[0].names[0])+w.valueSize)
	var stored uint64
	for _, m := range models {
		_, b := m.versions()
		stored += b
	}
	for _, r := range served(win, ph, func(int) bool { return true }) {
		r.print(out, " (not gated)")
	}
	return []row{
		{name: "setup_s", value: median(setupS), unit: "s", samples: len(setupS)},
		{name: "ok_frac", value: ratio(float64(win.attempted-win.failed), float64(win.attempted)), unit: "ratio", samples: int(win.attempted)},
		{name: "write_amp", value: ratio(written, acked), unit: "ratio"},
		{name: "space_amp", value: ratio(float64(ph.space.SpaceM+ph.space.SpaceO), float64(stored)), unit: "ratio"},
	}
}

// served derives the client-observed timings over the slices that use
// selects: the completed-call rate and the CPU per call as medians over
// those slices, latency percentiles over every call in them. They move
// with the host's load, so they are reported but carry no bound.
func served(win calls, ph *phase, use func(slice int) bool) []row {
	var rates, cpu []float64
	var lat [numKinds][]int64
	var n int
	for i, r := range sliceRates(win, ph) {
		if !use(i) {
			continue
		}
		rates = append(rates, r)
		cpu = append(cpu, float64((ph.cpu[i+1]-ph.cpu[i]).Nanoseconds())/1e3/max(win.okPerSlice[i], 1))
		n += int(win.okPerSlice[i])
		for k := range lat {
			lat[k] = append(lat[k], win.sliceLat[i][k]...)
		}
	}
	rows := []row{
		{name: "client.ops_per_s", value: median(rates), unit: "1/s", samples: n},
	}
	for _, k := range []opKind{opGet, opPut, opScan} {
		slices.Sort(lat[k])
		rows = append(rows,
			row{name: "client." + kindNames[k] + "_p50_us", value: percentile(lat[k], 0.50), unit: "us", samples: len(lat[k])},
			row{name: "client." + kindNames[k] + "_p99_us", value: percentile(lat[k], 0.99), unit: "us", samples: len(lat[k])})
	}
	return append(rows,
		row{name: "process.cpu_us_per_op", value: median(cpu), unit: "us", samples: n},
		row{name: "process.max_rss_mb", value: ph.rssMB, unit: "MiB"})
}

// Device geometry at the engine defaults (db.Config PageSize and
// SectorSize).
const (
	pageSize   = 4096
	sectorSize = 1024
)

// stageTolerance bounds how far the stage chain of a traced run may
// miss the client mean: the clamped self times must add up to within
// this share of it.
const stageTolerance = 0.05

// perLayer derives the per-layer metrics of a traced run. Counts and
// means are deltas over the measured phase. A layer time the served
// load never reached on this workload is taken from the direct-call
// phase or, failing that, from the cold reopen check, so every time
// metric is a measurement.
func perLayer(loops []*connLoop, ph *phase, pr probeResult, res *result, out io.Writer) []row {
	win := observe(loops, ph)
	res.Attempted, res.Failed = win.attempted, win.failed
	measured := delta{ph.a, ph.b}
	windows := []delta{measured, {ph.b, ph.c}, {snap{}, ph.reopened}}
	first := func(f func(d delta) (float64, bool)) float64 {
		for _, d := range windows {
			if v, ok := f(d); ok {
				return v
			}
		}
		return 0
	}
	timed := func(name string, labels ...string) float64 {
		return first(func(d delta) (float64, bool) {
			return d.histMean(name, labels...), d.sum(name+"_count", labels...) > 0
		})
	}
	a, b := measured.a.st, measured.b.st
	ops := float64(win.attempted - win.failed)
	gets := float64(len(win.lat[opGet]))
	queries := float64(len(win.lat[opScan]))

	getExec := measured.histMean("tsb_server_op_seconds", `op="get"`)
	putExec := measured.histMean("tsb_server_op_seconds", `op="put"`)
	execSum := measured.sum("tsb_server_op_seconds_sum", `op="get"`) + measured.sum("tsb_server_op_seconds_sum", `op="put"`)
	execN := measured.sum("tsb_server_op_seconds_count", `op="get"`) + measured.sum("tsb_server_op_seconds_count", `op="put"`)
	pointLat := append(slices.Clone(win.lat[opGet]), win.lat[opPut]...)
	querySum := measured.sum("tsb_server_op_seconds_sum", `op="open_query"`) + measured.sum("tsb_server_op_seconds_sum", `op="query_fetch"`)

	commits := float64(b.Txn.Committed - a.Txn.Committed)
	commitUs := measured.histMean("tsb_commit_latency_seconds")
	fsyncUs := timed("tsb_wal_fsync_seconds")
	fsyncPerCommit := ratio(measured.sum("tsb_wal_fsync_seconds_sum")*1e6, commits)

	// Stage chain of a put: client span ⊃ server exec ⊃ txn commit ⊃
	// WAL fsync (its share per commit), and of a get: client ⊃ exec.
	putClient, getClient := mean(win.lat[opPut]), mean(win.lat[opGet])
	residual := max(
		stageResidual(putClient, putExec, commitUs, fsyncPerCommit),
		stageResidual(getClient, getExec))
	fmt.Fprintf(out, "  stage chain put: client %.1fus = wire+queue %.1f + exec %.1f + commit %.1f + fsync %.1f\n",
		putClient, putClient-putExec, putExec-commitUs, commitUs-fsyncPerCommit, fsyncPerCommit)
	fmt.Fprintf(out, "  stage chain get: client %.1fus = wire+queue %.1f + exec %.1f\n", getClient, getClient-getExec, getExec)
	if residual > stageTolerance {
		fmt.Fprintf(out, "STAGES: self times miss the client mean by %.3f of it (tolerance %.2f)\n", residual, stageTolerance)
		res.Correct = false
	}

	var traced, plain []float64
	for i, r := range sliceRates(win, ph) {
		if tracedSlice(i) {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}

	var latch [2][2]float64 // [wait, hold][read, write]
	for i, fam := range []string{"tsb_latch_wait_seconds", "tsb_latch_hold_seconds"} {
		for j, mode := range []string{`mode="read"`, `mode="write"`} {
			latch[i][j] = timed(fam, mode)
		}
	}
	var maxIns, sumIns float64
	for i := range ph.b.inserts {
		n := float64(ph.b.inserts[i] - ph.a.inserts[i])
		maxIns = max(maxIns, n)
		sumIns += n
	}
	checkpoints := float64(b.Checkpoint.Checkpoints - a.Checkpoint.Checkpoints)
	pauseMs := first(func(d delta) (float64, bool) {
		n := d.b.st.Checkpoint.Checkpoints - d.a.st.Checkpoint.Checkpoints
		return ratio(float64(d.b.st.Checkpoint.PauseNanos-d.a.st.Checkpoint.PauseNanos)/1e6, float64(n)), n > 0
	})
	splitMs := first(func(d delta) (float64, bool) {
		ns := d.b.st.Migrator.SplitLatchNanos - d.a.st.Migrator.SplitLatchNanos
		return float64(ns) / 1e6, ns > 0
	})
	wormReads := measured.sum("tsb_device_read_seconds_count", `device="worm"`)
	sectorsPerRead := first(func(d delta) (float64, bool) {
		n := d.sum("tsb_device_read_seconds_count", `device="worm"`)
		return ratio(float64(d.b.st.WORM.SectorReads-d.a.st.WORM.SectorReads), n), n > 0
	})

	hits, misses := float64(b.Buffer.Hits-a.Buffer.Hits), float64(b.Buffer.Misses-a.Buffer.Misses)
	ta, tb := a.Tree, b.Tree
	untraced := served(win, ph, func(i int) bool { return !tracedSlice(i) })
	return append(untraced,
		row{name: "server.get_exec_us", value: getExec, unit: "us"},
		row{name: "server.put_exec_us", value: putExec, unit: "us"},
		row{name: "server.query_exec_us", value: ratio(querySum*1e6, queries), unit: "us", samples: int(queries)},
		row{name: "server.wire_queue_us", value: mean(pointLat) - ratio(execSum*1e6, execN), unit: "us", samples: len(pointLat)},
		row{name: "server.shed", value: measured.sum("tsb_server_shed_total"), unit: "count"},
		row{name: "txn.commit_us", value: commitUs, unit: "us", samples: int(commits)},
		row{name: "txn.commit_self_us", value: commitUs - fsyncPerCommit, unit: "us"},
		row{name: "txn.commits_per_batch", value: ratio(commits, float64(b.Txn.CommitBatches-a.Txn.CommitBatches)), unit: "ratio"},
		row{name: "txn.conflicts", value: float64(b.Txn.Conflicts - a.Txn.Conflicts), unit: "count"},
		row{name: "wal.fsync_us", value: fsyncUs, unit: "us"},
		row{name: "wal.bytes_per_commit", value: ratio(float64(b.WAL.Bytes-a.WAL.Bytes), commits), unit: "B"},
		row{name: "db.latch_wait_read_us", value: latch[0][0], unit: "us"},
		row{name: "db.latch_wait_write_us", value: latch[0][1], unit: "us"},
		row{name: "db.latch_hold_read_us", value: latch[1][0], unit: "us"},
		row{name: "db.latch_hold_write_us", value: latch[1][1], unit: "us"},
		row{name: "db.checkpoints", value: checkpoints, unit: "count"},
		row{name: "db.checkpoint_ms", value: timed("tsb_checkpoint_seconds") / 1e3, unit: "ms"},
		row{name: "db.checkpoint_pause_ms", value: pauseMs, unit: "ms"},
		row{name: "db.split_latch_ms", value: splitMs, unit: "ms"},
		row{name: "db.shard_max_share", value: ratio(maxIns, sumIns), unit: "ratio"},
		row{name: "db.migrated", value: float64(b.Migrator.Migrated - a.Migrator.Migrated), unit: "count"},
		row{name: "db.migrate_fallbacks", value: float64(b.Migrator.InlineFallbacks - a.Migrator.InlineFallbacks), unit: "count"},
		row{name: "core.height", value: float64(tb.Height), unit: "count"},
		row{name: "core.time_splits", value: float64(tb.LeafTimeSplits + tb.IndexTimeSplits - ta.LeafTimeSplits - ta.IndexTimeSplits), unit: "count"},
		row{name: "core.key_splits", value: float64(tb.LeafKeySplits + tb.IndexKeySplits - ta.LeafKeySplits - ta.IndexKeySplits), unit: "count"},
		row{name: "core.historical_nodes", value: float64(tb.HistoricalNodes - ta.HistoricalNodes), unit: "count"},
		row{name: "core.redundant_frac", value: ratio(float64(tb.RedundantVersions-ta.RedundantVersions), float64(tb.Inserts-ta.Inserts)), unit: "ratio"},
		row{name: "core.pages_per_get", value: pr.pages / probeGets, unit: "count", samples: probeGets},
		row{name: "buffer.hit_ratio", value: ratio(hits, hits+misses), unit: "ratio"},
		row{name: "buffer.misses_per_op", value: ratio(misses, ops), unit: "count"},
		row{name: "buffer.evictions", value: float64(b.Buffer.Evictions - a.Buffer.Evictions), unit: "count"},
		row{name: "buffer.flushed_pages", value: float64(b.Buffer.FlushedPages - a.Buffer.FlushedPages), unit: "count"},
		row{name: "buffer.overflows", value: float64(b.Buffer.Overflows - a.Buffer.Overflows), unit: "count"},
		row{name: "pagestore.worm_read_us", value: timed("tsb_device_read_seconds", `device="worm"`), unit: "us"},
		row{name: "pagestore.worm_reads_per_get", value: ratio(wormReads, gets), unit: "count"},
		row{name: "pagestore.worm_sectors_per_read", value: sectorsPerRead, unit: "count"},
		row{name: "pagestore.page_read_us", value: timed("tsb_device_read_seconds", `device="page"`), unit: "us"},
		row{name: "pagestore.page_write_us", value: timed("tsb_device_write_seconds", `device="page"`), unit: "us"},
		row{name: "pagestore.page_sync_us", value: timed("tsb_device_sync_seconds", `device="page"`), unit: "us"},
		row{name: "pagestore.burn_us", value: timed("tsb_device_burn_seconds"), unit: "us"},
		row{name: "query.rows_per_query", value: ratio(float64(win.rows), queries), unit: "count"},
		row{name: "query.compile_us", value: pr.compileUs, unit: "us"},
		row{name: "query.next_us", value: pr.nextUs, unit: "us"},
		row{name: "trace.overhead_frac", value: 1 - ratio(median(traced), median(plain)), unit: "ratio"},
		row{name: "trace.stage_residual", value: residual, unit: "ratio"},
	)
}

// tracedSlice reports whether a traced run records spans in slice i.
// The order untraced, traced, traced, untraced, ... puts both halves
// at nearly the same mean position in the run, so a steady drift in
// throughput does not read as tracing overhead.
func tracedSlice(i int) bool { return i%4 == 1 || i%4 == 2 }

// stageResidual checks a chain of nested stage means, outermost first:
// each stage's self time is its mean minus the next one's, and the
// innermost is all self. Self times sum to the outer mean by
// construction, so what can fail is nesting: the share of the outer
// mean by which negative self times (an inner stage measured longer
// than its parent) miss it.
func stageResidual(means ...float64) float64 {
	var neg float64
	for i := 0; i+1 < len(means); i++ {
		neg += max(means[i+1]-means[i], 0)
	}
	return ratio(neg, means[0])
}

// writeSpans writes every traced span to <root>/traces as CSV.
func writeSpans(cfg config, w workload, loops []*connLoop, pr probeResult) error {
	dir := filepath.Join(cfg.root, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv", w.name, cfg.seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "conn,id,name,start_ns,end_ns")
	all := pr.spans
	for _, lp := range loops {
		all = append(all, lp.spans...)
	}
	for _, s := range all {
		fmt.Fprintf(bw, "%d,%d,%s,%d,%d\n", s.conn, s.id, s.name, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
