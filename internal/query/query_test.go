package query_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/query"
	"repro/internal/record"
	"repro/internal/txn"
)

func openTestDB(t *testing.T, shards int) *db.DB {
	t.Helper()
	d, err := db.Open(db.Config{Shards: shards, LeafCapacity: 256, IndexCapacity: 1024})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return d
}

func put(t *testing.T, d *db.DB, kv ...string) {
	t.Helper()
	if len(kv)%2 != 0 {
		t.Fatal("odd kv")
	}
	err := d.Update(func(tx *txn.Txn) error {
		for i := 0; i < len(kv); i += 2 {
			if err := tx.Put(record.Key(kv[i]), []byte(kv[i+1])); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("update: %v", err)
	}
}

func collectRows(t *testing.T, d *db.DB, spec *query.Spec) []query.Row {
	t.Helper()
	op, err := d.Query(spec)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	defer op.Close()
	var out []query.Row
	for op.Next() {
		out = append(out, op.Row())
	}
	if err := op.Err(); err != nil {
		t.Fatalf("rows: %v", err)
	}
	return out
}

func keysOf(rows []query.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = string(r.Key)
	}
	return out
}

func TestQueryScanFilterPushdown(t *testing.T) {
	d := openTestDB(t, 4)
	for i := 0; i < 64; i++ {
		put(t, d, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i))
	}
	rows := collectRows(t, d,
		query.Scan(nil, record.InfiniteBound()).
			Filter(record.Key("k10"), record.KeyBound(record.Key("k13"))))
	want := []string{"k10", "k11", "k12"}
	if got := keysOf(rows); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestQueryHistoryAndGroupBy(t *testing.T) {
	d := openTestDB(t, 2)
	for i := 0; i < 5; i++ {
		put(t, d, "a", fmt.Sprintf("a%d", i))
	}
	put(t, d, "b", "b0")

	rows := collectRows(t, d, query.History(record.Key("a")))
	if len(rows) != 5 {
		t.Fatalf("history rows = %d, want 5", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Versions[0].Time <= rows[i-1].Versions[0].Time {
			t.Fatalf("history not time-ascending")
		}
	}

	agg := collectRows(t, d,
		query.Window(nil, record.InfiniteBound(), 1, record.TimeInfinity).GroupBy())
	if len(agg) != 2 {
		t.Fatalf("groups = %d, want 2", len(agg))
	}
	if agg[0].Count != 5 || string(agg[0].Key) != "a" {
		t.Fatalf("group a: count=%d key=%s", agg[0].Count, agg[0].Key)
	}
	if string(agg[0].Versions[0].Value) != "a0" || string(agg[0].Versions[1].Value) != "a4" {
		t.Fatalf("group a first/last = %q/%q", agg[0].Versions[0].Value, agg[0].Versions[1].Value)
	}
}

func TestQueryDiffMatchesDB(t *testing.T) {
	d := openTestDB(t, 4)
	put(t, d, "a", "1", "b", "1")
	t1 := d.Now()
	put(t, d, "b", "2", "c", "1")
	err := d.Update(func(tx *txn.Txn) error { return tx.Delete(record.Key("a")) })
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	t2 := d.Now()

	// Reference: core's Tree.Diff per shard, concatenated in shard
	// (= key) order.
	var want []core.Change
	for i := 0; i < d.Shards(); i++ {
		err := d.WithShardTree(i, func(tr *core.Tree) error {
			part, err := tr.Diff(nil, record.InfiniteBound(), t1, t2)
			want = append(want, part...)
			return err
		})
		if err != nil {
			t.Fatalf("tree diff: %v", err)
		}
	}
	rows := collectRows(t, d, query.Diff(nil, record.InfiniteBound(), t1, t2))
	if len(rows) != len(want) {
		t.Fatalf("diff rows = %d, want %d", len(rows), len(want))
	}
	for i, c := range want {
		r := rows[i]
		if !r.Key.Equal(c.Key) || r.HasBefore != c.HasBefor || r.HasAfter != c.HasAfter {
			t.Fatalf("row %d: %+v vs change %+v", i, r, c)
		}
		j := 0
		if c.HasBefor {
			if r.Versions[j].Time != c.Before.Time {
				t.Fatalf("row %d before mismatch", i)
			}
			j++
		}
		if c.HasAfter && r.Versions[j].Time != c.After.Time {
			t.Fatalf("row %d after mismatch", i)
		}
	}
}

func TestQueryMergeJoinAndParallel(t *testing.T) {
	d := openTestDB(t, 8)
	for i := 0; i < 200; i++ {
		put(t, d, fmt.Sprintf("k%03d", i), "v")
	}
	left := query.Scan(nil, record.KeyBound(record.Key("k150")))
	right := query.Scan(record.Key("k100"), record.InfiniteBound())
	rows := collectRows(t, d, left.Join(right))
	if len(rows) != 50 {
		t.Fatalf("join rows = %d, want 50", len(rows))
	}
	if string(rows[0].Key) != "k100" || len(rows[0].Versions) != 2 {
		t.Fatalf("join row 0 = %+v", rows[0])
	}

	serial := query.Scan(nil, record.InfiniteBound())
	par := query.Scan(nil, record.InfiniteBound())
	par.Parallel = true
	sk := keysOf(collectRows(t, d, serial))
	pk := keysOf(collectRows(t, d, par))
	if fmt.Sprint(sk) != fmt.Sprint(pk) {
		t.Fatalf("parallel order differs from serial")
	}
	if len(pk) != 200 {
		t.Fatalf("parallel rows = %d", len(pk))
	}

	rev := query.Scan(nil, record.InfiniteBound())
	rev.Reverse, rev.Parallel = true, true
	rk := keysOf(collectRows(t, d, rev))
	if len(rk) != 200 || rk[0] != "k199" || rk[199] != "k000" {
		t.Fatalf("reverse parallel wrong: len=%d first=%s last=%s", len(rk), rk[0], rk[len(rk)-1])
	}
}

func TestQuerySecondaryJoin(t *testing.T) {
	d := openTestDB(t, 4)
	if err := d.CreateSecondary("byclass", func(v []byte) record.Key {
		if len(v) == 0 {
			return nil
		}
		return record.Key(v[:1])
	}); err != nil {
		t.Fatalf("create secondary: %v", err)
	}
	put(t, d, "a", "x1", "b", "y1", "c", "x2", "d", "x3", "e", "z1")
	rows := collectRows(t, d,
		query.Scan(nil, record.InfiniteBound()).
			JoinSecondary("byclass", record.Key("x"), 0))
	want := []string{"a", "c", "d"}
	if got := keysOf(rows); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v want %v", got, want)
	}
}
