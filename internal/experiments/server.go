package experiments

// E16: closed-loop service-layer throughput. The previous experiments
// measure the engine embedded; E16 measures it served — N concurrent
// client connections over loopback TCP, each pipelining a mixed
// put/get/scan workload through the tsbserve protocol with a bounded
// in-flight window. The run repeats with background time-split
// migration off and on: the migrator's latency win (E14) should
// survive the network stack and show up in the served p99, which is
// the number an operator actually sees.

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/db"
	"repro/internal/query"
	"repro/internal/record"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/storage"
)

// ClosedLoopResult summarizes one mode's served run.
type ClosedLoopResult struct {
	Mode      string // "inline" or "background" (migration)
	Conns     int
	Window    int
	Ops       uint64
	Elapsed   time.Duration
	OpsPerSec float64
	P50Micros float64 // client-observed op latency (send to response)
	P99Micros float64
	ServerP99 uint64 // server-side execution p99 (histogram bound)
}

// E16ClosedLoop starts a server over loopback TCP and drives it with
// conns concurrent sessions, each pipelining opsPerConn mixed
// operations (puts and gets at a sliding window of `window` in-flight
// calls, plus periodic short scans through a server-side cursor), once
// per migration mode. Latency is measured at the client from send to
// response — the closed-loop number that includes framing, the wire,
// and window queueing, not just engine time.
func E16ClosedLoop(conns, window, opsPerConn int) ([]ClosedLoopResult, Table, error) {
	tab := Table{
		Title: "E16: closed-loop service layer — pipelined connections over loopback TCP",
		Header: []string{
			"migration", "conns", "window", "ops", "p50 us", "p99 us",
			"server p99 us", "elapsed", "ops/sec",
		},
		Remarks: []string{
			fmt.Sprintf("%d connections, one session each, window %d in-flight requests, mixed puts/gets plus periodic cursor scans", conns, window),
			"latency is client-observed send-to-response: protocol framing, loopback TCP, window queueing, and engine",
			"inline: time splits burn to the WORM on the serving goroutine, under the shard write latch",
			"background: the migrator defers the burn off-latch; E14's latency win should survive the network stack",
		},
	}
	var results []ClosedLoopResult
	for _, background := range []bool{false, true} {
		mode := "inline"
		if background {
			mode = "background"
		}
		r, err := runClosedLoop(background, conns, window, opsPerConn)
		if err != nil {
			return nil, Table{}, fmt.Errorf("%s: %w", mode, err)
		}
		r.Mode = mode
		results = append(results, r)
		tab.Rows = append(tab.Rows, []string{
			mode, num(uint64(r.Conns)), num(uint64(r.Window)), num(r.Ops),
			fmt.Sprintf("%.1f", r.P50Micros), fmt.Sprintf("%.1f", r.P99Micros),
			num(r.ServerP99),
			r.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", r.OpsPerSec),
		})
	}
	return results, tab, nil
}

func runClosedLoop(background bool, conns, window, opsPerConn int) (ClosedLoopResult, error) {
	// E14's device asymmetry, served: the write-once device really
	// sleeps per burn, so an inline time split stalls every request
	// pipelined behind it on that shard.
	cost := storage.CostModel{OpticalAccess: time.Millisecond, RealSleep: true}
	d, err := db.Open(db.Config{
		Shards:              8,
		PageSize:            8192,
		LeafCapacity:        2048,
		IndexCapacity:       2048,
		SectorSize:          512,
		Cost:                &cost,
		BackgroundMigration: background,
	})
	if err != nil {
		return ClosedLoopResult{}, err
	}
	defer func() { _ = d.Close() }()

	srv := server.New(d, server.Config{Window: window})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return ClosedLoopResult{}, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	lats := make([][]time.Duration, conns)
	errCh := make(chan error, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for cn := 0; cn < conns; cn++ {
		lats[cn] = make([]time.Duration, 0, opsPerConn)
		wg.Add(1)
		go func(cn int) {
			defer wg.Done()
			errCh <- runConn(addr, cn, window, opsPerConn, &lats[cn])
		}(cn)
	}
	wg.Wait()
	for i := 0; i < conns; i++ {
		if err := <-errCh; err != nil {
			return ClosedLoopResult{}, err
		}
	}
	// Charge deferred burns to the same clock, as in E14.
	if err := d.DrainMigrations(); err != nil {
		return ClosedLoopResult{}, err
	}
	elapsed := time.Since(start)
	serverP99 := srv.Stats().P99Micros
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return ClosedLoopResult{}, err
	}
	if err := <-serveDone; err != nil {
		return ClosedLoopResult{}, err
	}
	if err := d.CheckInvariants(); err != nil {
		return ClosedLoopResult{}, err
	}

	var all []time.Duration
	for _, ls := range lats {
		all = append(all, ls...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		return float64(all[int(p*float64(len(all)-1))].Nanoseconds()) / 1000
	}
	r := ClosedLoopResult{
		Conns:     conns,
		Window:    window,
		Ops:       uint64(len(all)),
		Elapsed:   elapsed,
		P50Micros: pct(0.50),
		P99Micros: pct(0.99),
		ServerP99: serverP99,
	}
	if elapsed > 0 {
		r.OpsPerSec = float64(r.Ops) / elapsed.Seconds()
	}
	return r, nil
}

// runConn is one closed-loop session: a sliding window of pipelined
// puts and gets on the connection's own hot keys (updates build the
// history that forces time splits; disjoint keys mean no lock
// conflicts), a snapshot refresh every 256 ops so gets read fresh data,
// and a short server-side cursor scan every 200 ops.
func runConn(addr string, cn, window, opsPerConn int, lats *[]time.Duration) error {
	c, err := client.Dial(addr, client.Options{
		Tenant: []byte(fmt.Sprintf("e16-%04d", cn%64)),
		Window: window,
	})
	if err != nil {
		return fmt.Errorf("conn %d dial: %w", cn, err)
	}
	defer func() { _ = c.Close() }()

	type inflight struct {
		t0   time.Time
		call *client.Call
		put  bool
	}
	var pend []inflight
	reap := func(f inflight) error {
		var err error
		if f.put {
			_, err = f.call.Time()
		} else {
			_, _, err = f.call.Value()
		}
		if err != nil {
			return err
		}
		*lats = append(*lats, time.Since(f.t0))
		return nil
	}
	payload := []byte(fmt.Sprintf("e16-payload-%04d-0123456789abcdef", cn))
	for i := 0; i < opsPerConn; i++ {
		k := record.Uint64Key(uint64(i%64)*0x9e3779b97f4a7c15&^0xffff | uint64(cn))
		var f inflight
		f.t0 = time.Now()
		if i%10 < 7 {
			f.put = true
			f.call, err = c.PutAsync(k, payload)
		} else {
			f.call, err = c.GetAsync(k, 0)
		}
		if err != nil {
			return fmt.Errorf("conn %d op %d: %w", cn, i, err)
		}
		pend = append(pend, f)
		if len(pend) >= window {
			if err := reap(pend[0]); err != nil {
				return fmt.Errorf("conn %d: %w", cn, err)
			}
			pend = pend[1:]
		}
		if i%256 == 255 {
			if _, err := c.Refresh(); err != nil {
				return fmt.Errorf("conn %d refresh: %w", cn, err)
			}
		}
		if i%200 == 199 {
			sc, err := c.QueryScan(query.Scan(nil, record.InfiniteBound()).WithLimit(8), client.QueryOptions{BatchSize: 8})
			if err != nil {
				return fmt.Errorf("conn %d scan: %w", cn, err)
			}
			if _, err := sc.Collect(); err != nil {
				return fmt.Errorf("conn %d scan: %w", cn, err)
			}
		}
	}
	for _, f := range pend {
		if err := reap(f); err != nil {
			return fmt.Errorf("conn %d: %w", cn, err)
		}
	}
	return nil
}
