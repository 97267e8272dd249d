package db

import (
	"fmt"
	"testing"

	"repro/internal/record"
	"repro/internal/txn"
)

func TestScanRangeThroughDB(t *testing.T) {
	d := open(t, Config{})
	put(t, d, "a", "a1") // t=1
	put(t, d, "b", "b1") // t=2
	put(t, d, "a", "a2") // t=3
	put(t, d, "c", "c1") // t=4

	vs, err := d.Cursor(nil, record.InfiniteBound(), ScanOptions{From: 2, To: 4}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	// Window [2,4): a1 alive at 2, b1 at 2, a2 at 3. c1 is outside.
	want := []string{"a1", "a2", "b1"}
	if len(vs) != len(want) {
		t.Fatalf("ScanRange = %v", vs)
	}
	for i, w := range want {
		if string(vs[i].Value) != w {
			t.Errorf("ScanRange[%d] = %s, want %s", i, vs[i], w)
		}
	}
}

func TestDiffThroughDB(t *testing.T) {
	d := open(t, Config{})
	put(t, d, "stay", "same") // t=1
	put(t, d, "mod", "old")   // t=2
	mark := d.Now()
	put(t, d, "mod", "new")                                                          // t=3
	put(t, d, "add", "x")                                                            // t=4
	d.Update(func(tx *txn.Txn) error { return tx.Delete(record.StringKey("stay")) }) // t=5

	changes, err := queryDiff(d, nil, record.InfiniteBound(), mark, d.Now())
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]string{}
	for _, c := range changes {
		kinds[string(c.Key)] = c.Kind()
	}
	want := map[string]string{"mod": "updated", "add": "created", "stay": "deleted"}
	if len(kinds) != len(want) {
		t.Fatalf("Diff = %v, want %v", kinds, want)
	}
	for k, v := range want {
		if kinds[k] != v {
			t.Errorf("Diff[%s] = %s, want %s", k, kinds[k], v)
		}
	}
}

func TestCursorThroughDB(t *testing.T) {
	d := open(t, Config{})
	for i := 0; i < 50; i++ {
		put(t, d, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i))
	}
	cur := d.Cursor(record.StringKey("k10"), record.KeyBound(record.StringKey("k20")), ScanOptions{})
	n := 0
	var prev record.Key
	for cur.Next() {
		v := cur.Version()
		if prev != nil && !prev.Less(v.Key) {
			t.Fatal("cursor out of order")
		}
		prev = v.Key
		n++
	}
	if cur.Err() != nil {
		t.Fatal(cur.Err())
	}
	if n != 10 {
		t.Fatalf("cursor yielded %d keys, want 10", n)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
}
