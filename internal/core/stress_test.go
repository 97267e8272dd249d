package core

// Edge-case and stress tests: degenerate workload shapes that push single
// mechanisms to their limits.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/record"
	"repro/internal/storage"
)

func TestSingleKeyForever(t *testing.T) {
	// One key updated thousands of times: key splits are impossible, so
	// the node must survive on chained time splits alone.
	tree, _, worm := newTestTree(t, PolicyWOBTLike)
	for i := 1; i <= 3000; i++ {
		put(t, tree, "only", uint64(i), fmt.Sprintf("v%d", i))
	}
	checkOK(t, tree)
	st := tree.Stats()
	if st.LeafKeySplits != 0 {
		t.Errorf("single-key workload key split %d times", st.LeafKeySplits)
	}
	if st.LeafTimeSplits == 0 || worm.Stats().SectorsBurned == 0 {
		t.Fatal("single-key workload must time split and migrate")
	}
	h, err := tree.History(record.StringKey("only"))
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 3000 {
		t.Fatalf("history = %d versions, want 3000", len(h))
	}
	for _, at := range []uint64{1, 500, 1500, 3000} {
		v, ok, err := tree.GetAsOf(record.StringKey("only"), record.Timestamp(at))
		if err != nil || !ok || string(v.Value) != fmt.Sprintf("v%d", at) {
			t.Fatalf("GetAsOf(%d) = %v %v %v", at, v, ok, err)
		}
	}
}

func TestSequentialRightEdgeInserts(t *testing.T) {
	// Monotonically increasing keys: growth concentrates on the right
	// edge, the classic B-tree hot path.
	tree, _, _ := newTestTree(t, PolicyLastUpdate)
	for i := 0; i < 2000; i++ {
		put(t, tree, fmt.Sprintf("key%06d", i), uint64(i+1), "x")
	}
	checkOK(t, tree)
	if tree.Stats().LeafTimeSplits != 0 {
		t.Error("insert-only right-edge growth must not time split")
	}
	for _, i := range []int{0, 999, 1999} {
		if _, ok, _ := tree.Get(record.StringKey(fmt.Sprintf("key%06d", i))); !ok {
			t.Fatalf("key%06d lost", i)
		}
	}
}

func TestDeleteReinsertCycles(t *testing.T) {
	tree, _, _ := newTestTree(t, PolicyWOBTLike)
	ts := uint64(0)
	for cycle := 0; cycle < 150; cycle++ {
		ts++
		put(t, tree, "flip", ts, fmt.Sprintf("alive%d", cycle))
		ts++
		del(t, tree, "flip", ts)
		// Interleave other keys to force splits.
		ts++
		put(t, tree, fmt.Sprintf("other%03d", cycle%20), ts, "x")
	}
	checkOK(t, tree)
	if _, ok, _ := tree.Get(record.StringKey("flip")); ok {
		t.Fatal("flip should be deleted")
	}
	h, _ := tree.History(record.StringKey("flip"))
	if len(h) != 300 {
		t.Fatalf("history = %d, want 300 (150 inserts + 150 tombstones)", len(h))
	}
	// As-of queries land correctly inside and outside alive intervals.
	for cycle := 0; cycle < 150; cycle += 37 {
		aliveAt := record.Timestamp(uint64(cycle)*3 + 1)
		deadAt := aliveAt + 1
		if _, ok, _ := tree.GetAsOf(record.StringKey("flip"), aliveAt); !ok {
			t.Fatalf("flip should be alive at %d", aliveAt)
		}
		if _, ok, _ := tree.GetAsOf(record.StringKey("flip"), deadAt); ok {
			t.Fatalf("flip should be dead at %d", deadAt)
		}
	}
}

func TestLargeTimestampGaps(t *testing.T) {
	// Commit times need not be dense; huge gaps must not disturb split
	// time selection.
	tree, _, _ := newTestTree(t, PolicyLastUpdate)
	ts := uint64(1)
	for i := 0; i < 300; i++ {
		put(t, tree, fmt.Sprintf("k%02d", i%12), ts, fmt.Sprintf("v%d", ts))
		ts += 1 << 40 // ~10^12 between commits
	}
	checkOK(t, tree)
	for i := 0; i < 12; i++ {
		if _, ok, _ := tree.Get(record.StringKey(fmt.Sprintf("k%02d", i))); !ok {
			t.Fatalf("k%02d lost", i)
		}
	}
}

func TestMaxSizeKeysAndValues(t *testing.T) {
	mag := storage.NewMagneticDisk(4096, storage.CostModel{})
	worm := storage.NewWORMDisk(storage.WORMConfig{SectorSize: 512})
	tree, err := New(mag, worm, Config{Policy: PolicyLastUpdate, MaxKeySize: 64, MaxValueSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("V", 256)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("%060d", i%25) // 60-byte keys
		err := tree.Insert(record.Version{
			Key:   record.StringKey(key),
			Time:  record.Timestamp(i + 1),
			Value: []byte(big),
		})
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	v, ok, _ := tree.Get(record.StringKey(fmt.Sprintf("%060d", 7)))
	if !ok || len(v.Value) != 256 {
		t.Fatalf("Get big = %v %v", len(v.Value), ok)
	}
}

func TestManyPendingTransactions(t *testing.T) {
	tree, _, _ := newTestTree(t, PolicyTimePref)
	// 40 transactions each holding a pending write on its own key, while
	// committed churn forces splits around them.
	for i := 0; i < 40; i++ {
		err := tree.Insert(record.Version{
			Key:   record.StringKey(fmt.Sprintf("pend%02d", i)),
			Time:  record.TimePending,
			TxnID: uint64(100 + i),
			Value: []byte("draft"),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 600; i++ {
		put(t, tree, fmt.Sprintf("churn%02d", i%15), uint64(i), fmt.Sprintf("v%d", i))
	}
	checkOK(t, tree)
	// Every pending write is still findable and resolvable.
	for i := 0; i < 40; i++ {
		k := record.StringKey(fmt.Sprintf("pend%02d", i))
		if _, ok, err := tree.GetPending(k, uint64(100+i)); !ok || err != nil {
			t.Fatalf("pending %d lost: %v %v", i, ok, err)
		}
		if i%2 == 0 {
			if _, err := tree.CommitKey(k, uint64(100+i), tree.Now()+1); err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
		} else if err := tree.AbortKey(k, uint64(100+i)); err != nil {
			t.Fatalf("abort %d: %v", i, err)
		}
	}
	checkOK(t, tree)
	for i := 0; i < 40; i++ {
		_, ok, _ := tree.Get(record.StringKey(fmt.Sprintf("pend%02d", i)))
		if ok != (i%2 == 0) {
			t.Fatalf("pend%02d visibility = %v after resolution", i, ok)
		}
	}
}

func TestDuplicateTimestampRejected(t *testing.T) {
	tree, _, _ := newTestTree(t, PolicyLastUpdate)
	put(t, tree, "k", 5, "a")
	err := tree.Insert(record.Version{Key: record.StringKey("k"), Time: 5, Value: []byte("b")})
	if err == nil {
		t.Fatal("second version of a key at the same commit time must be rejected")
	}
	// A different key at the same time is fine (same transaction).
	put(t, tree, "other", 5, "c")
}

func TestAdjacentKeysDifferingByOneByte(t *testing.T) {
	tree, _, _ := newTestTree(t, PolicyLastUpdate)
	ts := uint64(0)
	keys := []string{"a", "a\x00", "a\x01", "aa", "ab", "b"}
	for round := 0; round < 60; round++ {
		for _, k := range keys {
			ts++
			put(t, tree, k, ts, fmt.Sprintf("%s-%d", k, round))
		}
	}
	checkOK(t, tree)
	for _, k := range keys {
		v, ok, _ := tree.Get(record.StringKey(k))
		if !ok || !strings.HasPrefix(string(v.Value), k+"-") {
			t.Fatalf("Get(%q) = %q %v", k, v.Value, ok)
		}
	}
}
