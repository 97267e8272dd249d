package txn

import (
	"errors"
	"iter"

	"repro/internal/core"
	"repro/internal/record"
)

// ScanOptions configures a streaming read.
type ScanOptions struct {
	// At overrides the read transaction's snapshot timestamp for this
	// scan (0 keeps the transaction's own timestamp). Like ReadAt, any
	// At <= Now() yields a consistent snapshot.
	At record.Timestamp

	// From/To, when either is nonzero, switch the cursor to the
	// temporal range query: it yields the versions of each key valid at
	// any moment in [From, To), ordered by (key, time) — core's
	// ScanRange contract, streamed one current leaf's keys at a time.
	// From/To cannot be combined with At.
	From, To record.Timestamp

	// After, when non-nil, starts the scan strictly after this key,
	// overriding the low bound: the pagination resume position ("the
	// last key of the previous page"). Ignored by reverse scans, whose
	// resume position is the high bound.
	After record.Key

	// Limit bounds how many versions the cursor yields (0 = no limit).
	Limit int

	// Reverse yields versions in descending order (descending (key,
	// time) in window mode).
	Reverse bool
}

// ErrCursorOptions is returned by a cursor whose options conflict.
var ErrCursorOptions = errors.New("txn: ScanOptions.At cannot be combined with From/To")

// Cursor is a lazy, resumable read: versions stream in key order (or in
// (key, time) order in window mode) as Next is called, instead of
// arriving as one materialized slice.
//
// No latch is held between Next calls. Each Next holds at most one shard
// latch, for the duration of a single page: one leaf's visible versions
// (snapshot mode) or one current leaf's keys over the time window
// (window mode), in either direction; the snapshot-timestamp
// contract survives the latch hand-offs because versions visible at the
// cursor's timestamp are immutable. Abandoning a cursor mid-iteration
// therefore leaks nothing and can never block a writer; Close exists to
// make early termination explicit.
//
// A Cursor must be confined to one goroutine at a time, like the ReadTxn
// that produced it.
type Cursor struct {
	store Store
	at    record.Timestamp
	low   record.Key
	high  record.Bound
	opts  ScanOptions

	// window selects the temporal range query (ScanRangePage pages)
	// over the snapshot (ScanPageAsOf pages).
	window bool

	buf    []record.Version
	pos    int
	n      int
	done   bool
	closed bool
	err    error
}

// newCursor builds a cursor over store; at is the snapshot timestamp the
// producing transaction carries.
func newCursor(store Store, at record.Timestamp, low record.Key, high record.Bound, opts ScanOptions) *Cursor {
	if opts.After != nil && !opts.Reverse {
		low = opts.After.Successor()
	}
	c := &Cursor{store: store, at: at, low: low.Clone(), high: high, opts: opts}
	if opts.From != 0 || opts.To != 0 {
		if opts.At != 0 {
			c.err = ErrCursorOptions
			return c
		}
		c.window = true
		if opts.To <= opts.From {
			c.done = true // empty time window, like ScanRange
		}
		return c
	}
	if opts.At != 0 {
		c.at = opts.At
	}
	return c
}

// Cursor opens a streaming read over keys in [low, high) at the
// transaction's snapshot timestamp (or as directed by opts). It takes no
// logical locks, like every read-only transaction.
func (r *ReadTxn) Cursor(low record.Key, high record.Bound, opts ScanOptions) *Cursor {
	return newCursor(r.m.store, r.at, low, high, opts)
}

// Range returns a Go iterator over the versions a Cursor with the same
// arguments would yield. A non-nil error, if any, is yielded as the
// final pair. Breaking out of the loop early releases nothing because
// nothing is held — see Cursor.
func (r *ReadTxn) Range(low record.Key, high record.Bound, opts ScanOptions) iter.Seq2[record.Version, error] {
	return func(yield func(record.Version, error) bool) {
		c := r.Cursor(low, high, opts)
		defer c.Close()
		for c.Next() {
			if !yield(c.Version(), nil) {
				return
			}
		}
		if err := c.Err(); err != nil {
			yield(record.Version{}, err)
		}
	}
}

// Next advances to the next version and reports whether one is
// available. It returns false once the window is exhausted, the Limit is
// reached, the cursor is closed, or an error occurred (see Err).
func (c *Cursor) Next() bool {
	if c.err != nil || c.closed {
		return false
	}
	if c.opts.Limit > 0 && c.n >= c.opts.Limit {
		return false
	}
	for {
		if c.pos < len(c.buf) {
			c.pos++
			c.n++
			return true
		}
		if c.done {
			return false
		}
		if err := c.fill(); err != nil {
			c.err = err
			return false
		}
	}
}

// fill fetches the next latch-scoped page — one ScanPageAsOf page in
// snapshot mode, one ScanRangePage page in window mode — and shrinks the
// (low, high) window past it.
func (c *Cursor) fill() error {
	var p core.Page
	var err error
	if c.window {
		p, err = c.store.ScanRangePage(c.low, c.high, c.opts.From, c.opts.To, c.opts.Reverse)
	} else {
		p, err = c.store.ScanPageAsOf(c.at, c.low, c.high, c.opts.Reverse)
	}
	if err != nil {
		return err
	}
	c.buf, c.pos = p.Versions, 0
	c.low, c.high, c.done = p.Advance(c.low, c.high, c.opts.Reverse)
	return nil
}

// Version returns the version the cursor is positioned on. It must only
// be called after a successful Next.
func (c *Cursor) Version() record.Version { return c.buf[c.pos-1] }

// Err returns the first error the cursor hit, if any.
func (c *Cursor) Err() error { return c.err }

// Timestamp returns the snapshot time the cursor reads at (0 in window
// mode, where From/To select versions instead).
func (c *Cursor) Timestamp() record.Timestamp {
	if c.window {
		return 0
	}
	return c.at
}

// Close terminates the cursor. It is idempotent and always safe: a
// cursor holds no latch between Next calls, so Close releases no
// resources — it only makes further Next calls return false.
func (c *Cursor) Close() error {
	c.closed = true
	return nil
}

// Collect drains the cursor into a slice: the bridge from the streaming
// API back to a materialized result (ReadTxn.Scan, DB.History).
func (c *Cursor) Collect() ([]record.Version, error) {
	var out []record.Version
	for c.Next() {
		out = append(out, c.Version())
	}
	if c.err != nil {
		return nil, c.err
	}
	return out, nil
}

var _ Store = (*core.Tree)(nil)
