package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/query"
	"repro/internal/record"
	"repro/internal/server/wire"
	"repro/internal/txn"
)

// session is one connection's server-side state: the tenant namespace,
// the pinned read snapshot, and the cursors it owns (reaped on close).
type session struct {
	id     uint64
	hello  bool
	tenant []byte
	at     record.Timestamp // pinned read snapshot
	nsLow  record.Key       // TenantRange(tenant)
	nsHigh record.Bound
}

// conn runs one connection's pipeline. Only the executor goroutine
// touches sess, so it needs no lock.
type conn struct {
	srv  *Server
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	sess session
}

// serveConn is the reader side of the pipeline and owns the connection's
// lifecycle. It decodes frames into reqCh (capacity = the pipelining
// window); the executor turns each into a response on respCh; the
// writer streams responses back in order, flushing whenever the channel
// runs dry (one syscall per burst, not per response).
func (s *Server) serveConn(nc net.Conn) {
	defer s.connWg.Done()
	defer s.unregister(nc)
	defer func() { _ = nc.Close() }()

	c := &conn{
		srv:  s,
		nc:   nc,
		br:   bufio.NewReaderSize(nc, 1<<12),
		bw:   bufio.NewWriterSize(nc, 1<<12),
		sess: session{id: s.nextSession.Add(1)},
	}
	reqCh := make(chan []byte, s.cfg.Window)
	respCh := make(chan []byte, s.cfg.Window)

	var pipeWg sync.WaitGroup
	pipeWg.Add(2)

	// Executor: strictly in order, one request at a time. A nil payload
	// is the reader's bad-frame sentinel — answer it, then the reader's
	// close of reqCh ends the loop. When the loop ends no more fetches
	// can arrive, so the session's cursors are reaped here, before the
	// connection is unregistered.
	go func() {
		defer pipeWg.Done()
		defer close(respCh)
		for payload := range reqCh {
			start := time.Now()
			resp := c.execute(payload)
			dur := time.Since(start)
			s.allHist.Observe(dur)
			s.opHistFor(payload).Observe(dur)
			s.ops.Inc()
			respCh <- resp
		}
		s.curs.removeSession(c.sess.id)
	}()

	// Writer: drains respCh even after a write error so the executor
	// never blocks, and keeps the in-flight gauge exact either way.
	go func() {
		defer pipeWg.Done()
		var werr error
		for frame := range respCh {
			if werr == nil {
				if s.cfg.WriteTimeout > 0 {
					_ = nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
				}
				_, werr = c.bw.Write(frame)
				if werr == nil && len(respCh) == 0 {
					werr = c.bw.Flush()
				}
			}
			s.inFlight.Add(-1)
		}
		if werr == nil {
			_ = c.bw.Flush()
		}
	}()

	// Reader. A CRC or size violation is answered with one typed error
	// and then the connection closes — after either, the stream offset
	// can no longer be trusted.
	for {
		if !s.armRead(nc) {
			break
		}
		payload, err := record.ReadFrame(c.br, s.cfg.MaxFrameBytes)
		if err != nil {
			if errors.Is(err, record.ErrFrameTooLarge) || errors.Is(err, record.ErrFrameCRC) {
				s.inFlight.Add(1)
				reqCh <- nil
			}
			break
		}
		s.inFlight.Add(1)
		reqCh <- payload
	}
	close(reqCh)
	pipeWg.Wait()
}

// execute turns one request payload into one response frame, ready to
// write. It runs on the executor goroutine only.
func (c *conn) execute(payload []byte) []byte {
	body := c.respond(payload)
	return record.AppendFrame(nil, body)
}

func errResp(code byte, msg string) []byte {
	return wire.AppendError(nil, code, msg)
}

// dbErrResp maps an engine error onto the wire: no-wait lock conflicts
// are the retryable CodeConflict, everything else is CodeInternal.
func dbErrResp(err error) []byte {
	if errors.Is(err, txn.ErrLockConflict) {
		return errResp(wire.CodeConflict, err.Error())
	}
	return errResp(wire.CodeInternal, err.Error())
}

func (c *conn) respond(payload []byte) []byte {
	if payload == nil {
		return errResp(wire.CodeBadRequest, "malformed frame")
	}
	d := record.NewDecoder(payload)
	op := d.Byte()
	if d.Err() != nil {
		return errResp(wire.CodeBadRequest, "empty request")
	}
	if !c.sess.hello && op != wire.OpHello {
		return errResp(wire.CodeBadRequest, "first request must be hello")
	}
	switch op {
	case wire.OpHello:
		return c.opHello(d)
	case wire.OpPut:
		return c.opPut(d)
	case wire.OpGet:
		return c.opGet(d)
	case wire.OpDelete:
		return c.opDelete(d)
	case wire.OpCommit:
		return c.opCommit(d)
	case wire.OpCloseCursor:
		return c.opCloseCursor(d)
	case wire.OpRefresh:
		return c.opRefresh(d)
	case wire.OpStats:
		return c.opStats(d)
	case wire.OpPing:
		return c.opPing(d)
	case wire.OpOpenQuery:
		return c.opOpenQuery(d)
	case wire.OpQueryFetch:
		return c.opQueryFetch(d)
	}
	return errResp(wire.CodeBadRequest, "unknown op")
}

// ok starts an OK response body.
func ok() *record.Encoder {
	e := record.NewEncoder(make([]byte, 0, 32))
	e.Byte(wire.StatusOK)
	return e
}

func (c *conn) opHello(d *record.Decoder) []byte {
	if c.sess.hello {
		return errResp(wire.CodeBadRequest, "duplicate hello")
	}
	h, err := wire.DecodeHello(d)
	if err != nil {
		return errResp(wire.CodeBadRequest, err.Error())
	}
	if h.Version != wire.ProtocolVersion {
		return errResp(wire.CodeBadRequest, "unsupported protocol version")
	}
	at := h.At
	if at == 0 {
		at = c.srv.db.Now()
	}
	tenant := append([]byte(nil), h.Tenant...) // payload buffer is transient
	low, high := record.TenantRange(tenant)
	c.sess.hello = true
	c.sess.tenant = tenant
	c.sess.at = at
	c.sess.nsLow = low
	c.sess.nsHigh = high
	e := ok()
	e.Time(at)
	return e.Bytes()
}

// commit runs fn inside DB.Update and returns the commit timestamp.
func (c *conn) commit(fn func(*txn.Txn) error) (record.Timestamp, error) {
	var tx *txn.Txn
	err := c.srv.db.Update(func(t *txn.Txn) error {
		tx = t
		return fn(t)
	})
	if err != nil {
		return 0, err
	}
	return tx.CommitTime(), nil
}

func (c *conn) opPut(d *record.Decoder) []byte {
	if resp := c.srv.admit(); resp != nil {
		return resp
	}
	k := d.Key()
	v := d.Blob()
	if d.Err() != nil {
		return errResp(wire.CodeBadRequest, "short put")
	}
	ct, err := c.commit(func(t *txn.Txn) error {
		return t.Put(record.PrefixKey(c.sess.tenant, k), v)
	})
	if err != nil {
		return dbErrResp(err)
	}
	e := ok()
	e.Time(ct)
	return e.Bytes()
}

func (c *conn) opDelete(d *record.Decoder) []byte {
	if resp := c.srv.admit(); resp != nil {
		return resp
	}
	k := d.Key()
	if d.Err() != nil {
		return errResp(wire.CodeBadRequest, "short delete")
	}
	ct, err := c.commit(func(t *txn.Txn) error {
		return t.Delete(record.PrefixKey(c.sess.tenant, k))
	})
	if err != nil {
		return dbErrResp(err)
	}
	e := ok()
	e.Time(ct)
	return e.Bytes()
}

func (c *conn) opCommit(d *record.Decoder) []byte {
	if resp := c.srv.admit(); resp != nil {
		return resp
	}
	ops, err := wire.DecodeCommit(d)
	if err != nil {
		return errResp(wire.CodeBadRequest, err.Error())
	}
	ct, err := c.commit(func(t *txn.Txn) error {
		for _, op := range ops {
			pk := record.PrefixKey(c.sess.tenant, op.Key)
			if op.Delete {
				if err := t.Delete(pk); err != nil {
					return err
				}
			} else if err := t.Put(pk, op.Value); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return dbErrResp(err)
	}
	e := ok()
	e.Time(ct)
	return e.Bytes()
}

func (c *conn) opGet(d *record.Decoder) []byte {
	k := d.Key()
	at := d.Time()
	if d.Err() != nil {
		return errResp(wire.CodeBadRequest, "short get")
	}
	if at == 0 {
		at = c.sess.at
	}
	v, found, err := c.srv.db.GetAsOf(record.PrefixKey(c.sess.tenant, k), at)
	if err != nil {
		return dbErrResp(err)
	}
	e := ok()
	e.Bool(found)
	if found {
		sk, okStrip := record.StripPrefix(c.sess.tenant, v.Key)
		if !okStrip {
			return errResp(wire.CodeInternal, "version outside session namespace")
		}
		v.Key = sk
		e.Version(v)
	}
	return e.Bytes()
}

// namespaceSpec maps a tenant-relative operator tree into the
// session's slice of the keyspace. Primary-key fields (scan/diff
// windows, history keys, filter ranges) are prefixed; secondary keys
// are not (the index maps them to already-prefixed primary keys, and
// the semi-join intersects with the tenant-clamped primary stream).
// The decoded tree is ours to mutate in place.
func (c *conn) namespaceSpec(s *query.Spec) *query.Spec {
	if s == nil {
		return nil
	}
	switch s.Kind {
	case query.OpScan, query.OpDiff:
		s.Low = record.PrefixKey(c.sess.tenant, s.Low)
		if s.High.IsInfinite() {
			s.High = c.sess.nsHigh
		} else {
			s.High = record.KeyBound(record.PrefixKey(c.sess.tenant, s.High.Key()))
		}
	case query.OpHistory:
		s.Key = record.PrefixKey(c.sess.tenant, s.Key)
	case query.OpFilter:
		if s.HasKeyRange {
			s.FilterLow = record.PrefixKey(c.sess.tenant, s.FilterLow)
			if s.FilterHigh.IsInfinite() {
				s.FilterHigh = c.sess.nsHigh
			} else {
				s.FilterHigh = record.KeyBound(record.PrefixKey(c.sess.tenant, s.FilterHigh.Key()))
			}
		}
	}
	s.Input = c.namespaceSpec(s.Input)
	s.Left = c.namespaceSpec(s.Left)
	s.Right = c.namespaceSpec(s.Right)
	return s
}

// opOpenQuery compiles a shipped operator tree at the session snapshot
// and registers its live pipeline as a query cursor. Malformed trees —
// decode failures and Validate refusals alike — are the typed
// bad-request; nothing panics on crafted bytes.
func (c *conn) opOpenQuery(d *record.Decoder) []byte {
	spec, err := wire.DecodeOpenQuery(d)
	if err != nil {
		return errResp(wire.CodeBadRequest, err.Error())
	}
	op, err := c.srv.db.QueryAt(c.sess.at, c.namespaceSpec(spec))
	if err != nil {
		if errors.Is(err, query.ErrBadSpec) {
			return errResp(wire.CodeBadRequest, err.Error())
		}
		return dbErrResp(err)
	}
	id := c.srv.curs.add(&cursorState{
		sess:    c.sess.id,
		expires: time.Now().Add(c.srv.cfg.CursorLease),
		op:      op,
	})
	e := ok()
	e.Uvarint(id)
	return e.Bytes()
}

// fetchTrailer is the encoded size of a fetch reply's tail: the end-of-
// batch marker (uvarint 0) and the done flag.
const fetchTrailer = 2

// opQueryFetch drains one row batch from a query cursor's pipeline.
// The operator stays checked out for the duration (the busy flag
// serializes fetches and holds the janitor off), and between fetches
// it idles latch-free under its lease.
//
// A batch never outgrows MaxFrameBytes: each row is encoded in place
// and, if it would push the frame past the limit, cut off again and
// carried to the next fetch. A row too large for even an empty frame
// fails the cursor with a typed error; the connection stays usable.
func (c *conn) opQueryFetch(d *record.Decoder) []byte {
	id := d.Uvarint()
	maxN := d.Uvarint()
	if d.Err() != nil {
		return errResp(wire.CodeBadRequest, "short query-fetch")
	}
	if maxN == 0 {
		maxN = 128
	}
	maxN = min(maxN, 1024)

	cu, found := c.srv.curs.checkout(id, c.sess.id, time.Now().Add(c.srv.cfg.CursorLease))
	if !found {
		return errResp(wire.CodeUnknownCursor, "no such cursor (closed, expired, or another session's)")
	}

	fail := func(code byte, msg string) []byte {
		closeOp(cu)
		c.srv.curs.checkin(id, cu, true)
		return errResp(code, msg)
	}

	limit := c.srv.cfg.MaxFrameBytes - fetchTrailer
	e := ok()
	empty := e.Len()
	count := 0
	done := false
	for count < int(maxN) {
		mark := e.Len()
		if cu.carry != nil {
			e = record.NewEncoder(append(e.Bytes(), cu.carry...))
			cu.carry = nil
		} else {
			if !cu.op.Next() {
				if err := cu.op.Err(); err != nil {
					return fail(wire.CodeInternal, err.Error())
				}
				done = true
				break
			}
			r := cu.op.Row()
			sk, okStrip := record.StripPrefix(c.sess.tenant, r.Key)
			if !okStrip {
				return fail(wire.CodeInternal, "query row outside session namespace")
			}
			r.Key = sk
			vs := make([]record.Version, len(r.Versions))
			for i, v := range r.Versions {
				if svk, okV := record.StripPrefix(c.sess.tenant, v.Key); okV {
					v.Key = svk
				} else {
					return fail(wire.CodeInternal, "query version outside session namespace")
				}
				vs[i] = v
			}
			r.Versions = vs
			e.Uvarint(1) // "another row follows"
			wire.EncodeRow(e, r)
		}
		if e.Len() > limit {
			row := e.Bytes()[mark:]
			if mark == empty {
				return fail(wire.CodeBadRequest, fmt.Sprintf("query row of %d bytes exceeds the %d-byte frame limit", len(row), c.srv.cfg.MaxFrameBytes))
			}
			cu.carry = append([]byte(nil), row...)
			e = record.NewEncoder(e.Bytes()[:mark])
			break
		}
		count++
	}
	if done {
		closeOp(cu)
	}
	c.srv.curs.checkin(id, cu, done)
	e.Uvarint(0) // end of batch
	e.Bool(done)
	return e.Bytes()
}

func (c *conn) opCloseCursor(d *record.Decoder) []byte {
	id := d.Uvarint()
	if d.Err() != nil {
		return errResp(wire.CodeBadRequest, "short close-cursor")
	}
	c.srv.curs.remove(id, c.sess.id)
	return ok().Bytes() // idempotent: closing a gone cursor is fine
}

func (c *conn) opRefresh(d *record.Decoder) []byte {
	if d.Err() != nil {
		return errResp(wire.CodeBadRequest, "short refresh")
	}
	c.sess.at = c.srv.db.Now()
	e := ok()
	e.Time(c.sess.at)
	return e.Bytes()
}

func (c *conn) opStats(d *record.Decoder) []byte {
	if d.Err() != nil {
		return errResp(wire.CodeBadRequest, "short stats")
	}
	st := c.srv.Stats().WireStats()
	return wire.AppendStatsReply(ok().Bytes(), st)
}

func (c *conn) opPing(d *record.Decoder) []byte {
	if d.Err() != nil {
		return errResp(wire.CodeBadRequest, "short ping")
	}
	e := ok()
	e.Time(c.srv.db.Now())
	return e.Bytes()
}
