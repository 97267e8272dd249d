package db

import (
	"repro/internal/query"
	"repro/internal/record"
	"repro/internal/txn"
)

// queryExec binds a read transaction to the engine extensions the query
// layer can exploit: the shard count (parallel scans) and secondary
// lookups (index joins).
type queryExec struct {
	d *DB
	r *txn.ReadTxn
}

func (q queryExec) Cursor(low record.Key, high record.Bound, opts txn.ScanOptions) *txn.Cursor {
	return q.r.Cursor(low, high, opts)
}

func (q queryExec) Timestamp() record.Timestamp { return q.r.Timestamp() }

func (q queryExec) Shards() int { return q.d.Shards() }

func (q queryExec) LookupSecondary(index string, skey record.Key, at record.Timestamp) ([]record.Key, error) {
	return q.d.LookupSecondary(index, skey, at)
}

// Query compiles and runs a composed operator tree (see internal/query)
// at a fresh read snapshot: the builder API of the temporal query
// engine.
//
//	op, err := d.Query(query.Scan(nil, record.InfiniteBound()).
//		Filter(lo, hi).
//		GroupBy())
//	defer op.Close()
//	for op.Next() { use(op.Row()) }
//
// Operators stream under the cursor latch discipline — no latch held
// between Next calls — and a parallel scan's goroutines are released by
// Close.
func (d *DB) Query(spec *query.Spec) (query.Operator, error) {
	return d.QueryAt(d.Now(), spec)
}

// QueryAt runs spec against the snapshot at `at` (sources with their
// own At or From/To windows override it per scan) — the time-travel
// form of Query.
func (d *DB) QueryAt(at record.Timestamp, spec *query.Spec) (query.Operator, error) {
	return query.Compile(spec, queryExec{d: d, r: d.ReadAt(at)})
}

// History returns every committed version of key k, oldest first
// (tombstones included): the rows of query.History(k), collected.
func (d *DB) History(k record.Key) ([]record.Version, error) {
	op, err := d.Query(query.History(k))
	if err != nil {
		return nil, err
	}
	var vs []record.Version
	for op.Next() {
		vs = append(vs, op.Row().Versions...)
	}
	err = op.Err()
	if cerr := op.Close(); err == nil {
		err = cerr
	}
	return vs, err
}

var (
	_ query.Source          = queryExec{}
	_ query.ShardedSource   = queryExec{}
	_ query.SecondaryLookup = queryExec{}
)
