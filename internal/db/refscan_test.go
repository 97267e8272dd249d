package db

import (
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/record"
)

// The reference scans below run core's recursive Tree.ScanAsOf,
// ScanRange, History, and Diff per shard and concatenate the parts in
// shard order, which is key order. They share no code with the page
// walk that serves every cursor and query, so a test that compares the
// served read path against them checks it against an independent
// oracle.

func perShard[T any](d *DB, fn func(*core.Tree) ([]T, error)) ([]T, error) {
	var out []T
	for i := 0; i < d.Shards(); i++ {
		err := d.WithShardTree(i, func(tr *core.Tree) error {
			part, err := fn(tr)
			out = append(out, part...)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func refScanAsOf(d *DB, at record.Timestamp, low record.Key, high record.Bound) ([]record.Version, error) {
	return perShard(d, func(tr *core.Tree) ([]record.Version, error) { return tr.ScanAsOf(at, low, high) })
}

func refScanRange(d *DB, low record.Key, high record.Bound, from, to record.Timestamp) ([]record.Version, error) {
	return perShard(d, func(tr *core.Tree) ([]record.Version, error) { return tr.ScanRange(low, high, from, to) })
}

func refDiff(d *DB, low record.Key, high record.Bound, from, to record.Timestamp) ([]core.Change, error) {
	return perShard(d, func(tr *core.Tree) ([]core.Change, error) { return tr.Diff(low, high, from, to) })
}

func refHistory(d *DB, k record.Key) (vs []record.Version, err error) {
	err = d.WithShardTree(record.ShardOfKey(k, d.Shards()), func(tr *core.Tree) error {
		vs, err = tr.History(k)
		return err
	})
	return vs, err
}

// refFetchBySecondary resolves a secondary lookup through point reads of
// the primary index at the same time (§3.6), in primary-key order.
func refFetchBySecondary(d *DB, name string, skey record.Key, at record.Timestamp) ([]record.Version, error) {
	pks, err := d.LookupSecondary(name, skey, at)
	if err != nil {
		return nil, err
	}
	var out []record.Version
	r := d.ReadAt(at)
	for _, pk := range pks {
		v, ok, err := r.Get(pk)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, v)
		}
	}
	return out, nil
}

// The helpers below run the served read path — the query engine — and
// return its rows in the shape the reference helpers use.

// queryDiff runs the served diff, query.Diff, and returns its rows as
// core.Change values so they compare directly with refDiff.
func queryDiff(d *DB, low record.Key, high record.Bound, from, to record.Timestamp) ([]core.Change, error) {
	op, err := d.Query(query.Diff(low, high, from, to))
	if err != nil {
		return nil, err
	}
	defer op.Close()
	var out []core.Change
	for op.Next() {
		r := op.Row()
		c := core.Change{Key: r.Key, HasBefor: r.HasBefore, HasAfter: r.HasAfter}
		vs := r.Versions
		if r.HasBefore {
			c.Before, vs = vs[0], vs[1:]
		}
		if r.HasAfter {
			c.After = vs[0]
		}
		out = append(out, c)
	}
	return out, op.Err()
}

// queryBySecondary runs the served secondary fetch: a primary scan at
// time at semi-joined with the index lookup (Spec.JoinSecondary).
func queryBySecondary(d *DB, name string, skey record.Key, at record.Timestamp) ([]record.Version, error) {
	op, err := d.QueryAt(at, query.Scan(nil, record.InfiniteBound()).JoinSecondary(name, skey, at))
	if err != nil {
		return nil, err
	}
	defer op.Close()
	var out []record.Version
	for op.Next() {
		out = append(out, op.Row().Versions...)
	}
	return out, op.Err()
}
