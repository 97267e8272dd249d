package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/record"
	"repro/internal/txn"
	"repro/internal/workload"
)

// The hot-path allocation guards: one decode per node visited, keys and
// values pointing into the page buffer the read returned, and one leaf
// visit per committed key. A regression to per-field copies or repeated
// descents multiplies these counts many times over.

// TestGetCurrentAllocs bounds a current-key point read on the
// BenchmarkGetCurrent tree: per level of the descent, the page buffer,
// the node and its version or entry slice.
func TestGetCurrentAllocs(t *testing.T) {
	tree := benchTree(t, core.PolicyLastUpdate, 5000, 0.5)
	k := record.StringKey("key00000420")
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok, err := tree.Get(k); err != nil || !ok {
			t.Fatalf("Get = %v, %v", ok, err)
		}
	})
	t.Logf("current-key Get: %.1f allocs", allocs)
	if allocs > 16 {
		t.Errorf("current-key Get: %.1f allocs, budget 16", allocs)
	}
}

// TestUpdateAllocs bounds one single-key db.Update: begin, the pending
// insert's descent, group commit, and the commit stamp's one leaf
// visit.
func TestUpdateAllocs(t *testing.T) {
	d := benchShardedDB(t, 4, 1024)
	defer d.Close()
	k := workload.SpreadKey(7)
	value := []byte("benchmark-payload-0123456789abcdef")
	put := func(tx *txn.Txn) error { return tx.Put(k, value) }
	allocs := testing.AllocsPerRun(200, func() {
		if err := d.Update(put); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("single-key Update: %.1f allocs", allocs)
	if allocs > 48 {
		t.Errorf("single-key Update: %.1f allocs, budget 48", allocs)
	}
}
