package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/query"
	"repro/internal/record"
	"repro/internal/server/client"
)

// runClock reads run-relative nanoseconds.
type runClock struct{ base time.Time }

func (c runClock) now() int64 { return int64(time.Since(c.base)) }

// rec is one completed client call.
type rec struct {
	kind       opKind
	ok         bool
	rows       int32 // scan: rows returned
	sent, done int64
}

// span is one traced call: a served client call (conn >= 0) or a
// direct call into a layer after the served phase (conn = -1).
type span struct {
	conn       int
	id         uint64
	name       string
	start, end int64
}

// pending is a call sent and not yet received.
type pending struct {
	op   op
	id   uint64
	at   record.Timestamp // get read time
	seq  uint32           // put version number
	call *client.Call
	rows []query.Row // scan result, complete when queued
	err  error
	sent int64
	done int64
}

// connLoop runs one connection as a closed loop: at most window calls in
// flight, and a new call is sent only when an earlier one has been
// answered. The sender goroutine sends and the receiver goroutine waits
// for replies in send order, so a reply's completion time is taken
// when it arrives, not when the sender next looks. A History query is
// several round trips; the sender runs it to completion and queues the
// result in order.
type connLoop struct {
	conn    int
	c       *client.Client
	m       *model
	g       *generator
	asOf    bool
	window  int
	clk     runClock
	halt    *atomic.Bool
	tracing *atomic.Bool

	recs  []rec
	spans []span
	wrong error // first reply the oracle rejected
}

func (lp *connLoop) run() {
	q := make(chan *pending, lp.window)
	sem := make(chan struct{}, lp.window)
	done := make(chan struct{})
	go func() {
		defer close(done)
		lp.receive(q, sem)
	}()
	lp.send(q, sem)
	<-done
}

func (lp *connLoop) send(q chan<- *pending, sem chan struct{}) {
	defer close(q)
	for id := uint64(0); !lp.halt.Load(); id++ {
		sem <- struct{}{}
		o := lp.g.next()
		p := &pending{op: o, id: id, sent: lp.clk.now()}
		key := record.Key(lp.m.names[o.key])
		switch o.kind {
		case opGet:
			p.at = lp.m.readTime(o, lp.asOf)
			p.call, p.err = lp.c.GetAsync(key, p.at)
		case opPut:
			p.seq = lp.m.reserve(o.key)
			p.call, p.err = lp.c.PutAsync(key, lp.m.value(o.key, p.seq))
		case opScan:
			p.rows, p.err = history(lp.c, key)
			p.done = lp.clk.now()
		}
		q <- p
		if errors.Is(p.err, client.ErrClosed) {
			return
		}
	}
}

func history(c *client.Client, key record.Key) ([]query.Row, error) {
	qs, err := c.QueryScan(query.History(key), client.QueryOptions{})
	if err != nil {
		return nil, err
	}
	return qs.Collect()
}

func (lp *connLoop) receive(q <-chan *pending, sem <-chan struct{}) {
	for p := range q {
		var (
			got   record.Version
			found bool
			ts    record.Timestamp
		)
		err := p.err
		if err == nil {
			switch p.op.kind {
			case opGet:
				got, found, err = p.call.Value()
			case opPut:
				ts, err = p.call.Time()
			}
		}
		if p.done == 0 {
			p.done = lp.clk.now()
		}
		<-sem
		lp.recs = append(lp.recs, rec{kind: p.op.kind, ok: err == nil, rows: int32(len(p.rows)), sent: p.sent, done: p.done})
		if lp.tracing.Load() {
			lp.spans = append(lp.spans, span{conn: lp.conn, id: p.id, name: kindNames[p.op.kind], start: p.sent, end: p.done})
		}
		if err != nil {
			if p.op.kind == opPut {
				lp.m.taint(p.op.key)
			}
			continue
		}
		var bad error
		switch p.op.kind {
		case opGet:
			bad = lp.m.checkGet(p.op.key, p.at, got, found)
		case opPut:
			bad = lp.m.ack(p.op.key, p.seq, ts)
		case opScan:
			bad = lp.m.checkHistory(p.op.key, p.rows)
		}
		if bad != nil && lp.wrong == nil {
			lp.wrong = fmt.Errorf("conn %d call %d (%s): %w", lp.conn, p.id, kindNames[p.op.kind], bad)
		}
	}
}
