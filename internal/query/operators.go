package query

import (
	"bytes"

	"repro/internal/record"
	"repro/internal/txn"
)

// cursorOp adapts a txn.Cursor to the Operator contract: one row per
// version. It is the leaf every serial source compiles to.
type cursorOp struct {
	cur *txn.Cursor
	row Row
}

func (o *cursorOp) Next() bool {
	if !o.cur.Next() {
		return false
	}
	v := o.cur.Version()
	o.row = Row{Key: v.Key, Versions: []record.Version{v}}
	return true
}

func (o *cursorOp) Row() Row     { return o.row }
func (o *cursorOp) Err() error   { return o.cur.Err() }
func (o *cursorOp) Close() error { return o.cur.Close() }

// emptyOp is the compiled form of a statically-empty source (e.g. a
// diff with an empty time window).
type emptyOp struct{}

func (emptyOp) Next() bool   { return false }
func (emptyOp) Row() Row     { return Row{} }
func (emptyOp) Err() error   { return nil }
func (emptyOp) Close() error { return nil }

// filterOp streams the residual predicates a pushdown could not absorb:
// a key range (when the input is not a Scan/Diff source), a value
// prefix on the row's first version, and an arbitrary Where.
type filterOp struct {
	in   Operator
	spec *Spec
	row  Row
}

func (o *filterOp) Next() bool {
	for o.in.Next() {
		r := o.in.Row()
		if o.spec.HasKeyRange {
			if r.Key.Compare(o.spec.FilterLow) < 0 || o.spec.FilterHigh.CompareKey(r.Key) <= 0 {
				continue
			}
		}
		if o.spec.ValuePrefix != nil {
			if len(r.Versions) == 0 || !bytes.HasPrefix(r.Versions[0].Value, o.spec.ValuePrefix) {
				continue
			}
		}
		if o.spec.Where != nil && !o.spec.Where(r) {
			continue
		}
		o.row = r
		return true
	}
	return false
}

func (o *filterOp) Row() Row     { return o.row }
func (o *filterOp) Err() error   { return o.in.Err() }
func (o *filterOp) Close() error { return o.in.Close() }

// projectOp strips version values (and the txn ids that only matter to
// writers): the keys-and-timestamps projection.
type projectOp struct {
	in  Operator
	row Row
}

func (o *projectOp) Next() bool {
	if !o.in.Next() {
		return false
	}
	r := o.in.Row()
	vs := make([]record.Version, len(r.Versions))
	for i, v := range r.Versions {
		v.Value = nil
		v.TxnID = 0
		vs[i] = v
	}
	r.Versions = vs
	o.row = r
	return true
}

func (o *projectOp) Row() Row     { return o.row }
func (o *projectOp) Err() error   { return o.in.Err() }
func (o *projectOp) Close() error { return o.in.Close() }

// limitOp bounds the stream to the first n rows.
type limitOp struct {
	in        Operator
	remaining uint64
	row       Row
}

func (o *limitOp) Next() bool {
	if o.remaining == 0 || !o.in.Next() {
		return false
	}
	o.remaining--
	o.row = o.in.Row()
	return true
}

func (o *limitOp) Row() Row     { return o.row }
func (o *limitOp) Err() error   { return o.in.Err() }
func (o *limitOp) Close() error { return o.in.Close() }

// groupReader batches an operator's stream into its consecutive
// equal-key groups — the unit MergeJoin and GroupBy work in. Inputs are
// key-ordered, so one group is fully buffered with one row of
// lookahead.
type groupReader struct {
	op   Operator
	next Row
	have bool
	done bool
}

// group returns the next key group, or nil when the stream is
// exhausted (check op.Err afterwards).
func (g *groupReader) group() []Row {
	if !g.have {
		if g.done || !g.op.Next() {
			g.done = true
			return nil
		}
		g.next, g.have = g.op.Row(), true
	}
	out := []Row{g.next}
	key := g.next.Key
	g.have = false
	for g.op.Next() {
		r := g.op.Row()
		if !r.Key.Equal(key) {
			g.next, g.have = r, true
			break
		}
		out = append(out, r)
	}
	if !g.have {
		g.done = true
	}
	return out
}

// groupByOp aggregates each key group into one row: the version count
// plus the group's first and last version in stream order (a single
// entry when they coincide) — min/max over a key's history falls out of
// the window ordering.
type groupByOp struct {
	in  Operator
	gr  *groupReader
	row Row
}

func (o *groupByOp) Next() bool {
	if o.gr == nil {
		o.gr = &groupReader{op: o.in}
	}
	rows := o.gr.group()
	if rows == nil {
		return false
	}
	agg := Row{Key: rows[0].Key}
	var first, last record.Version
	haveFirst := false
	for _, r := range rows {
		agg.Count += uint64(len(r.Versions))
		for _, v := range r.Versions {
			if !haveFirst {
				first, haveFirst = v, true
			}
			last = v
		}
	}
	if haveFirst {
		if agg.Count > 1 {
			agg.Versions = []record.Version{first, last}
		} else {
			agg.Versions = []record.Version{first}
		}
	}
	o.row = agg
	return true
}

func (o *groupByOp) Row() Row     { return o.row }
func (o *groupByOp) Err() error   { return o.in.Err() }
func (o *groupByOp) Close() error { return o.in.Close() }

// mergeJoinOp joins two key-ordered streams on key equality: the
// classic sort-merge join, with matching key groups combined pairwise
// (left row's versions first). Both inputs must run in the same
// direction; cmp flips for reverse streams.
type mergeJoinOp struct {
	left, right *groupReader
	reverse     bool
	lg, rg      []Row
	out         []Row
	pos         int
	row         Row
}

func newMergeJoin(left, right Operator, reverse bool) *mergeJoinOp {
	return &mergeJoinOp{
		left:    &groupReader{op: left},
		right:   &groupReader{op: right},
		reverse: reverse,
	}
}

func (o *mergeJoinOp) cmp(a, b record.Key) int {
	if o.reverse {
		return b.Compare(a)
	}
	return a.Compare(b)
}

func (o *mergeJoinOp) Next() bool {
	for {
		if o.pos < len(o.out) {
			o.row = o.out[o.pos]
			o.pos++
			return true
		}
		if o.lg == nil {
			if o.lg = o.left.group(); o.lg == nil {
				return false
			}
		}
		if o.rg == nil {
			if o.rg = o.right.group(); o.rg == nil {
				return false
			}
		}
		switch c := o.cmp(o.lg[0].Key, o.rg[0].Key); {
		case c < 0:
			o.lg = nil
		case c > 0:
			o.rg = nil
		default:
			o.out, o.pos = o.out[:0], 0
			for _, l := range o.lg {
				for _, r := range o.rg {
					vs := make([]record.Version, 0, len(l.Versions)+len(r.Versions))
					vs = append(append(vs, l.Versions...), r.Versions...)
					o.out = append(o.out, Row{
						Key:       l.Key,
						Versions:  vs,
						Count:     l.Count + r.Count,
						HasBefore: l.HasBefore || r.HasBefore,
						HasAfter:  l.HasAfter || r.HasAfter,
					})
				}
			}
			o.lg, o.rg = nil, nil
		}
	}
}

func (o *mergeJoinOp) Row() Row { return o.row }

func (o *mergeJoinOp) Err() error {
	if err := o.left.op.Err(); err != nil {
		return err
	}
	return o.right.op.Err()
}

func (o *mergeJoinOp) Close() error {
	err := o.left.op.Close()
	if rerr := o.right.op.Close(); err == nil {
		err = rerr
	}
	return err
}

// semiJoinOp filters the stream to keys present in a sorted key list —
// the secondary-index lookup merge-joined against the primary stream.
// Rows pass through unchanged.
type semiJoinOp struct {
	in      Operator
	keys    []record.Key // sorted in stream direction
	reverse bool
	i       int
	row     Row
}

func newSemiJoin(in Operator, keys []record.Key, reverse bool) *semiJoinOp {
	if reverse {
		for l, r := 0, len(keys)-1; l < r; l, r = l+1, r-1 {
			keys[l], keys[r] = keys[r], keys[l]
		}
	}
	return &semiJoinOp{in: in, keys: keys, reverse: reverse}
}

func (o *semiJoinOp) cmp(a, b record.Key) int {
	if o.reverse {
		return b.Compare(a)
	}
	return a.Compare(b)
}

func (o *semiJoinOp) Next() bool {
	for o.in.Next() {
		r := o.in.Row()
		for o.i < len(o.keys) && o.cmp(o.keys[o.i], r.Key) < 0 {
			o.i++
		}
		if o.i >= len(o.keys) {
			return false
		}
		if o.keys[o.i].Equal(r.Key) {
			o.row = r
			return true
		}
	}
	return false
}

func (o *semiJoinOp) Row() Row     { return o.row }
func (o *semiJoinOp) Err() error   { return o.in.Err() }
func (o *semiJoinOp) Close() error { return o.in.Close() }

// probeOp is the secondary join over a plain Scan source: one point
// cursor per looked-up key, in stream direction, with the scan's time
// options. It reads only the matching records' pages — about matches ×
// tree height — where semiJoinOp would walk every primary leaf between
// the first and last match.
type probeOp struct {
	src  Source
	scan *Spec
	keys []record.Key // sorted in stream direction, distinct
	cur  *cursorOp
	err  error
	row  Row
}

func (o *probeOp) Next() bool {
	for {
		if o.cur != nil {
			if o.cur.Next() {
				o.row = o.cur.Row()
				return true
			}
			o.err = o.closeCur()
		}
		if o.err != nil || len(o.keys) == 0 {
			return false
		}
		k := o.keys[0]
		o.keys = o.keys[1:]
		if k.Compare(o.scan.Low) < 0 || o.scan.High.CompareKey(k) <= 0 {
			continue
		}
		opts := txn.ScanOptions{At: o.scan.At, From: o.scan.From, To: o.scan.To, Reverse: o.scan.Reverse}
		o.cur = &cursorOp{cur: o.src.Cursor(k, justAfter(k), opts)}
	}
}

func (o *probeOp) closeCur() error {
	err := o.cur.Err()
	if cerr := o.cur.Close(); err == nil {
		err = cerr
	}
	o.cur = nil
	return err
}

func (o *probeOp) Row() Row   { return o.row }
func (o *probeOp) Err() error { return o.err }

func (o *probeOp) Close() error {
	if o.cur != nil {
		return o.closeCur()
	}
	return nil
}

// diffOp folds a (key, time)-ordered window stream over [from, to+1)
// into change rows, replicating core.Tree.Diff's per-key endpoint
// comparison one group at a time: the change-cursor. Keys arrive in
// stream order (descending for a reverse diff); keys whose state did
// not change between the endpoints produce no row.
type diffOp struct {
	in       Operator
	gr       *groupReader
	from, to record.Timestamp
	row      Row
}

func (o *diffOp) Next() bool {
	if o.gr == nil {
		o.gr = &groupReader{op: o.in}
	}
	for {
		rows := o.gr.group()
		if rows == nil {
			return false
		}
		var atFrom, atTo record.Version
		hasFrom, hasTo, changedIn := false, false, false
		for _, r := range rows {
			for _, v := range r.Versions {
				if v.Time <= o.from {
					atFrom, hasFrom = v, !v.Tombstone
				} else {
					changedIn = true
				}
				if v.Time <= o.to && (!hasTo || v.Time > atTo.Time) {
					atTo, hasTo = v, true
				}
			}
		}
		if !changedIn {
			continue
		}
		row := Row{Key: rows[0].Key}
		if hasFrom {
			row.Versions = append(row.Versions, atFrom)
			row.HasBefore = true
		}
		if hasTo && !atTo.Tombstone {
			row.Versions = append(row.Versions, atTo)
			row.HasAfter = true
		}
		if !row.HasBefore && !row.HasAfter {
			continue // created and deleted inside the window
		}
		o.row = row
		return true
	}
}

func (o *diffOp) Row() Row     { return o.row }
func (o *diffOp) Err() error   { return o.in.Err() }
func (o *diffOp) Close() error { return o.in.Close() }
