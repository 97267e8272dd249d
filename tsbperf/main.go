// Command tsbperf is the repository's benchmark: the served path of a
// durable paged TSB-tree database, end to end and layer by layer.
//
// One process opens a paged database configured as `tsbserve -paged`
// configures it (Dir + PagedDevices, 4 shards, engine defaults
// otherwise), serves it in-process over loopback with server.New, and
// drives it through internal/server/client with two connections. Each
// connection is a closed loop with a fixed pipeline window and owns a
// disjoint key set, so a version oracle knows exactly which version
// every read must return; any other answer fails the run. After the
// served phase the database is closed, reopened, and every
// acknowledged version is read back at its commit timestamp.
//
// Usage, from the repository root (tsbperf/run.sh builds and runs it):
//
//	tsbperf --workload point-hot|asof-history|ingest --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output is a JSON object
// holding the end-to-end metrics; with --trace 1 it holds the
// per-layer metrics, and the spans of every traced client call and
// direct layer call are written under <root>/traces. BENCHMARK.json at
// the repository root lists both metric sets; interactions.json in
// this directory maps each per-layer metric to the end-to-end metric
// and workload it should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/db"
	"repro/internal/record"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/txn"
)

// Fixed conditions of every run.
const (
	shards  = 4 // tsbserve's -shards default
	conns   = 2
	window  = 2  // in-flight calls per connection
	nslices = 10 // the measured phase is cut into this many equal slices

	maxSetups = 9
)

type config struct {
	workload string
	seed     uint64
	measure  time.Duration
	warmup   time.Duration
	trace    bool
	setups   int // minimum set-ups per run; setup_s is their median
	// setupBudget is the set-up time after which no further set-up
	// starts once cfg.setups are done.
	setupBudget time.Duration
	scale       float64 // key-set scale (1 = full size; self-tests shrink it)
	root        string  // working directory for databases and traces
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 15, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.root, "root", ".bench_build", "directory for databases and traces")
	flag.Parse()
	if seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "tsbperf: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.measure = time.Duration(seconds) * time.Second
	cfg.warmup = 2 * time.Second
	cfg.trace = trace == 1
	cfg.setups = 3
	cfg.setupBudget = 2 * time.Second
	cfg.scale = 1

	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsbperf:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsbperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func dbConfig(w workload, dir string) db.Config {
	return db.Config{Dir: dir, Shards: shards, PagedDevices: true, CheckpointBytes: w.checkpointBytes}
}

// run executes one benchmark run and returns its result. Set-up,
// warm-up and measurement are separate phases: the program under test
// sees only the generated requests.
func run(cfg config, stdout io.Writer) (*result, error) {
	w, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	w = w.scaled(cfg.scale)
	fmt.Fprintf(stdout, "tsbperf workload=%s seed=%d seconds=%g trace=%t\n", w.name, cfg.seed, cfg.measure.Seconds(), cfg.trace)
	fmt.Fprintf(stdout, "conditions: %d CPUs, %d shards (all served keys route to shard 0), 256 buffer pages, every commit fsynced, checkpoint threshold %s, migrator off, %d conns x window %d\n",
		runtime.NumCPU(), shards, ckptLabel(w.checkpointBytes), conns, window)

	runDir := filepath.Join(cfg.root, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	// Set-up: open a fresh directory, preload, checkpoint. Repeated at
	// least cfg.setups times and until cfg.setupBudget is spent (at most
	// maxSetups); the last database is the one served.
	var setupS []float64
	var spent time.Duration
	var d *db.DB
	var models []*model
	var dir string
	for i := 0; i < cfg.setups || (spent < cfg.setupBudget && i < maxSetups); i++ {
		if d != nil {
			if err := d.Close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		dir = filepath.Join(runDir, fmt.Sprintf("db%d", i))
		t0 := time.Now()
		dd, ms, err := setup(w, cfg.seed, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(t0)
		spent += took
		setupS = append(setupS, took.Seconds())
		d, models = dd, ms
	}
	fmt.Fprintf(stdout, "set-up: %d keys, %d versions, %d pages in use\n",
		conns*len(models[0].names), versions(models), d.Stats().Magnetic.PagesInUse)
	dbOpen := true
	defer func() {
		if dbOpen {
			_ = d.Close()
		}
	}()

	srv := server.New(d, server.Config{})
	srv.RegisterMetrics(d.Metrics())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	stopServer := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		return errors.Join(err, <-serveDone)
	}

	clk := runClock{base: time.Now()}
	var halt, tracing atomic.Bool
	loops := make([]*connLoop, conns)
	for c := range loops {
		cl, err := client.Dial(ln.Addr().String(), client.Options{Window: 2 * window})
		if err != nil {
			for _, lp := range loops[:c] {
				_ = lp.c.Close()
			}
			_ = stopServer()
			return nil, err
		}
		loops[c] = &connLoop{
			conn: c, c: cl, m: models[c], g: newGenerator(w, cfg.seed, c), asOf: w.asOf,
			window: window, clk: clk, halt: &halt, tracing: &tracing,
		}
	}
	var wg sync.WaitGroup
	for _, lp := range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lp.run()
		}()
	}

	// Warm-up, then the measured phase in equal slices. A traced run
	// records spans in half of the slices (tracedSlice), so the slices
	// without spans give the tracing overhead.
	time.Sleep(cfg.warmup)
	ph := phase{slices: make([]int64, nslices+1), cpu: make([]time.Duration, nslices+1)}
	ph.a, err = takeSnap(d)
	if err == nil {
		ph.slices[0], ph.cpu[0] = clk.now(), cpuTime()
		step := int64(cfg.measure) / nslices
		for i := 0; i < nslices; i++ {
			tracing.Store(cfg.trace && tracedSlice(i))
			time.Sleep(time.Duration(ph.slices[0] + int64(i+1)*step - clk.now()))
			ph.slices[i+1], ph.cpu[i+1] = clk.now(), cpuTime()
		}
		tracing.Store(false)
		ph.b, err = takeSnap(d)
		ph.rssMB = maxRSSMB()
	}
	halt.Store(true)
	wg.Wait()
	if err != nil {
		_ = stopServer()
		return nil, err
	}
	ph.space = d.Stats().Device

	var pr probeResult
	if cfg.trace {
		if pr, err = probe(d, w, models, cfg.seed, clk); err == nil {
			ph.c, err = takeSnap(d)
		}
	}
	for _, lp := range loops {
		_ = lp.c.Close()
	}
	err = errors.Join(err, stopServer())
	dbOpen = false
	err = errors.Join(err, d.Close())
	if err != nil {
		return nil, err
	}

	// Every acknowledged version must survive a close and reopen.
	d2, err := db.Open(dbConfig(w, dir))
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	verr := verify(d2, models)
	if verr == nil && cfg.trace {
		ph.reopened, verr = takeSnap(d2)
	}
	if err := errors.Join(verr, d2.Close()); err != nil {
		return nil, err
	}

	res := &result{Correct: true}
	for _, lp := range loops {
		if lp.wrong != nil {
			res.Correct = false
			fmt.Fprintln(stdout, "WRONG:", lp.wrong)
		}
	}
	var rows []row
	if cfg.trace {
		rows = perLayer(loops, &ph, pr, res, stdout)
		if err := writeSpans(cfg, w, loops, pr); err != nil {
			return nil, err
		}
	} else {
		rows = endToEnd(w, loops, &ph, models, setupS, res, stdout)
	}
	res.Metrics = make(map[string]metric, len(rows))
	for _, r := range rows {
		res.Metrics[r.name] = metric{Value: r.value, Unit: r.unit}
		r.print(stdout, "")
	}
	return res, nil
}

// setup opens a fresh paged database in dir, preloads every key
// through db.Update in batches (depth versions of each hot key, one of
// each static key), and checkpoints, so every run starts from a clean,
// checkpointed pool. It returns the database and the oracle's models.
func setup(w workload, seed uint64, dir string) (*db.DB, []*model, error) {
	d, err := db.Open(dbConfig(w, dir))
	if err != nil {
		return nil, nil, err
	}
	models := make([]*model, conns)
	for c := range models {
		models[c] = newModel(w, seed, c)
	}
	type item struct {
		m   *model
		key int
		seq uint32
	}
	const batch = 256
	for round := 0; round < w.depth; round++ {
		var items []item
		for _, m := range models {
			for key := range m.names {
				if round == 0 || key < w.keys {
					items = append(items, item{m: m, key: key, seq: m.reserve(key)})
				}
			}
		}
		for lo := 0; lo < len(items); lo += batch {
			chunk := items[lo:min(lo+batch, len(items))]
			var tx *txn.Txn
			err := d.Update(func(t *txn.Txn) error {
				tx = t
				for _, it := range chunk {
					if err := t.Put(record.PrefixKey(nil, it.m.names[it.key]), it.m.value(it.key, it.seq)); err != nil {
						return err
					}
				}
				return nil
			})
			if err == nil {
				for _, it := range chunk {
					if err = it.m.ack(it.key, it.seq, tx.CommitTime()); err != nil {
						break
					}
				}
			}
			if err != nil {
				_ = d.Close()
				return nil, nil, err
			}
		}
	}
	if err := d.Checkpoint(); err != nil {
		_ = d.Close()
		return nil, nil, err
	}
	return d, models, nil
}

func ckptLabel(n int64) string {
	if n == 0 {
		return "4 MiB (engine default)"
	}
	return fmt.Sprintf("%d KiB", n>>10)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
