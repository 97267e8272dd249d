package core

import (
	"fmt"
	"testing"

	"repro/internal/record"
	"repro/internal/storage"
)

// testConfig returns a config with small logical nodes so tests exercise
// splits with few records, as in the paper's figures.
func testConfig(p Policy) Config {
	return Config{
		Policy:        p,
		MaxKeySize:    16,
		MaxValueSize:  16,
		LeafCapacity:  160,
		IndexCapacity: 640,
	}
}

func newTestTree(t *testing.T, p Policy) (*Tree, *storage.MagneticDisk, *storage.WORMDisk) {
	t.Helper()
	mag := storage.NewMagneticDisk(4096, storage.CostModel{})
	worm := storage.NewWORMDisk(storage.WORMConfig{SectorSize: 512})
	tree, err := New(mag, worm, testConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	return tree, mag, worm
}

func put(t *testing.T, tree *Tree, key string, ts uint64, val string) {
	t.Helper()
	err := tree.Insert(record.Version{
		Key:   record.StringKey(key),
		Time:  record.Timestamp(ts),
		Value: []byte(val),
	})
	if err != nil {
		t.Fatalf("insert %s@%d: %v", key, ts, err)
	}
}

func del(t *testing.T, tree *Tree, key string, ts uint64) {
	t.Helper()
	err := tree.Insert(record.Version{
		Key:       record.StringKey(key),
		Time:      record.Timestamp(ts),
		Tombstone: true,
	})
	if err != nil {
		t.Fatalf("delete %s@%d: %v", key, ts, err)
	}
}

func checkOK(t *testing.T, tree *Tree) {
	t.Helper()
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestEmptyTree(t *testing.T) {
	tree, _, _ := newTestTree(t, PolicyWOBTLike)
	checkOK(t, tree)
	if _, ok, err := tree.Get(record.StringKey("x")); err != nil || ok {
		t.Fatalf("Get on empty = %v, %v", ok, err)
	}
	if vs, err := tree.ScanAsOf(5, nil, record.InfiniteBound()); err != nil || len(vs) != 0 {
		t.Fatalf("ScanAsOf on empty = %v, %v", vs, err)
	}
	if tree.Stats().Height != 1 || tree.Stats().CurrentNodes != 1 {
		t.Errorf("stats: %+v", tree.Stats())
	}
}

func TestBasicCRUD(t *testing.T) {
	tree, _, _ := newTestTree(t, PolicyWOBTLike)
	put(t, tree, "acct1", 1, "100")
	put(t, tree, "acct2", 2, "200")
	put(t, tree, "acct1", 3, "150")
	checkOK(t, tree)

	v, ok, _ := tree.Get(record.StringKey("acct1"))
	if !ok || string(v.Value) != "150" {
		t.Fatalf("Get(acct1) = %v, %v", v, ok)
	}
	// Stepwise constant (Figure 1): the balance holds between updates.
	for at, want := range map[uint64]string{1: "100", 2: "100", 3: "150", 99: "150"} {
		v, ok, _ := tree.GetAsOf(record.StringKey("acct1"), record.Timestamp(at))
		if !ok || string(v.Value) != want {
			t.Errorf("GetAsOf(acct1,%d) = %v,%v want %s", at, v, ok, want)
		}
	}
	if _, ok, _ := tree.GetAsOf(record.StringKey("acct2"), 1); ok {
		t.Error("GetAsOf before insertion should miss")
	}
	del(t, tree, "acct2", 4)
	if _, ok, _ := tree.Get(record.StringKey("acct2")); ok {
		t.Error("Get after delete should miss")
	}
	if v, ok, _ := tree.GetAsOf(record.StringKey("acct2"), 3); !ok || string(v.Value) != "200" {
		t.Error("GetAsOf before delete should hit")
	}
	h, _ := tree.History(record.StringKey("acct2"))
	if len(h) != 2 || !h[1].Tombstone {
		t.Errorf("History(acct2) = %v", h)
	}
}

func TestValidation(t *testing.T) {
	tree, _, _ := newTestTree(t, PolicyWOBTLike)
	put(t, tree, "a", 10, "x")
	cases := []record.Version{
		{Key: nil, Time: 11},                                                      // empty key
		{Key: record.StringKey("b"), Time: 5},                                     // time regression
		{Key: record.StringKey("b"), Time: 0},                                     // zero time
		{Key: record.StringKey("b"), Time: record.TimePending},                    // pending without txn
		{Key: record.Key(make([]byte, 99)), Time: 11},                             // oversized key
		{Key: record.StringKey("b"), Time: 11, Value: make([]byte, 999)},          // oversized value
		{Key: record.StringKey("b"), Time: record.TimeInfinity, Value: []byte{1}}, // infinity
	}
	for i, v := range cases {
		if err := tree.Insert(v); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, v)
		}
	}
}

func TestLeafKeySplitInsertOnly(t *testing.T) {
	// Figure 5: an insert-only node must key split, and the new index
	// entries inherit the node's original start time.
	tree, _, worm := newTestTree(t, PolicyTimePref) // even time-preferring policy must key split
	for i := 0; i < 30; i++ {
		put(t, tree, fmt.Sprintf("k%02d", i), uint64(i+1), "val")
	}
	checkOK(t, tree)
	st := tree.Stats()
	if st.LeafKeySplits == 0 {
		t.Fatal("insert-only workload must key split")
	}
	if st.LeafTimeSplits != 0 || st.IndexTimeSplits != 0 {
		t.Errorf("insert-only workload must not time split: %+v", st)
	}
	if worm.Stats().SectorsBurned != 0 {
		t.Error("insert-only workload must not migrate anything")
	}
	root, _ := tree.ViewRoot()
	for _, e := range root.Entries {
		if e.Rect.Start != record.TimeZero {
			t.Errorf("entry start %s, want 0 (timestamp copied from previous entry)", e.Rect.Start)
		}
		if !e.Rect.IsCurrent() || !e.Child.IsMagnetic() {
			t.Errorf("insert-only entries must stay current: %v", e)
		}
	}
	for i := 0; i < 30; i++ {
		k := record.StringKey(fmt.Sprintf("k%02d", i))
		if _, ok, err := tree.Get(k); !ok || err != nil {
			t.Fatalf("Get(%s) = %v, %v", k, ok, err)
		}
	}
}

func TestLeafTimeSplitMigratesHistory(t *testing.T) {
	tree, _, worm := newTestTree(t, PolicyWOBTLike)
	// Update one key repeatedly alongside one other key: update-dominated.
	put(t, tree, "hot", 1, "v0")
	put(t, tree, "cold", 2, "c0")
	for i := 2; i < 40; i++ {
		put(t, tree, "hot", uint64(i+1), fmt.Sprintf("v%d", i))
	}
	checkOK(t, tree)
	st := tree.Stats()
	if st.LeafTimeSplits == 0 {
		t.Fatalf("update-heavy workload should time split: %+v", st)
	}
	if worm.Stats().SectorsBurned == 0 {
		t.Fatal("time splits must migrate nodes to the WORM")
	}
	if st.VersionsMigrated == 0 || st.HistoricalNodes == 0 {
		t.Errorf("migration stats empty: %+v", st)
	}
	// Every version remains reachable.
	h, err := tree.History(record.StringKey("hot"))
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 39 {
		t.Fatalf("History(hot) = %d versions, want 39", len(h))
	}
	for i, v := range h {
		if v.Time != record.Timestamp(i+1) && i > 0 {
			// times are 1,3,4,...,40 (2 went to cold)
			break
		}
	}
	// As-of queries across the whole history.
	for _, at := range []uint64{1, 5, 20, 40} {
		if _, ok, err := tree.GetAsOf(record.StringKey("hot"), record.Timestamp(at)); !ok || err != nil {
			t.Errorf("GetAsOf(hot,%d) = %v, %v", at, ok, err)
		}
	}
	if v, ok, _ := tree.Get(record.StringKey("cold")); !ok || string(v.Value) != "c0" {
		t.Errorf("Get(cold) = %v, %v", v, ok)
	}
}

func TestRedundancyClause3(t *testing.T) {
	// A record persisting across the split time must be in both nodes.
	tree, _, _ := newTestTree(t, PolicyWOBTLike) // split at now
	put(t, tree, "stable", 1, "forever")
	for i := 2; i < 40; i++ {
		put(t, tree, "churn", uint64(i), fmt.Sprintf("v%d", i))
	}
	checkOK(t, tree)
	if tree.Stats().RedundantVersions == 0 {
		t.Fatal("long-lived record should have been copied by clause 3")
	}
	// "stable" is still present and its history has exactly one version.
	if v, ok, _ := tree.Get(record.StringKey("stable")); !ok || string(v.Value) != "forever" {
		t.Fatalf("Get(stable) = %v, %v", v, ok)
	}
	h, _ := tree.History(record.StringKey("stable"))
	if len(h) != 1 {
		t.Fatalf("History(stable) = %v, want one distinct version", h)
	}
}

func TestSplitTimeChoiceLastUpdateAvoidsRedundantInserts(t *testing.T) {
	// §3.3 / Figure 6: with the split time pushed back to the last
	// update, trailing insertions are not carried into the historical
	// node and need no redundant copies.
	run := func(choice SplitTimeChoice) Stats {
		p := Policy{KeySplitFraction: 0.95, SplitTime: choice, IndexKeySplitFraction: 0.5}
		tree, _, _ := newTestTree(t, p)
		// Updates first, then trailing inserts until the node splits.
		put(t, tree, "u", 1, "a")
		put(t, tree, "u", 2, "b")
		put(t, tree, "u", 3, "c")
		for i := 0; i < 20; i++ {
			put(t, tree, fmt.Sprintf("i%02d", i), uint64(4+i), "x")
			if tree.Stats().LeafTimeSplits+tree.Stats().LeafTimeKeySplits > 0 {
				break
			}
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if tree.Stats().LeafTimeSplits+tree.Stats().LeafTimeKeySplits == 0 {
			t.Fatalf("scenario did not time split (choice=%v): %+v", choice, tree.Stats())
		}
		return tree.Stats()
	}
	nowStats := run(SplitAtNow)
	luStats := run(SplitAtLastUpdate)
	if luStats.RedundantVersions > nowStats.RedundantVersions {
		t.Errorf("last-update redundancy %d should be <= now redundancy %d",
			luStats.RedundantVersions, nowStats.RedundantVersions)
	}
	if luStats.VersionsMigrated >= nowStats.VersionsMigrated {
		t.Errorf("last-update should migrate fewer versions (%d vs %d): trailing inserts stay current",
			luStats.VersionsMigrated, nowStats.VersionsMigrated)
	}
}

func TestPendingVersionsNeverMigrate(t *testing.T) {
	tree, _, _ := newTestTree(t, PolicyTimePref)
	// A pending write sits in the leaf while committed churn forces
	// repeated time splits around it.
	if err := tree.Insert(record.Version{
		Key: record.StringKey("mine"), Time: record.TimePending, TxnID: 42, Value: []byte("draft"),
	}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 60; i++ {
		put(t, tree, "churn", uint64(i), fmt.Sprintf("v%d", i))
	}
	checkOK(t, tree)
	if tree.Stats().LeafTimeSplits == 0 {
		t.Fatal("scenario should have time split")
	}
	// The pending version must still be on the magnetic disk, findable,
	// and erasable.
	v, ok, err := tree.GetPending(record.StringKey("mine"), 42)
	if err != nil || !ok || string(v.Value) != "draft" {
		t.Fatalf("GetPending = %v, %v, %v", v, ok, err)
	}
	if _, ok, _ := tree.Get(record.StringKey("mine")); ok {
		t.Error("pending version must be invisible to committed reads")
	}
	if err := tree.AbortKey(record.StringKey("mine"), 42); err != nil {
		t.Fatalf("abort: %v", err)
	}
	if _, ok, _ := tree.GetPending(record.StringKey("mine"), 42); ok {
		t.Error("aborted version should be gone")
	}
	checkOK(t, tree)
}

func TestCommitStampsPendingVersion(t *testing.T) {
	tree, _, _ := newTestTree(t, PolicyWOBTLike)
	put(t, tree, "k", 5, "committed")
	if err := tree.Insert(record.Version{
		Key: record.StringKey("k"), Time: record.TimePending, TxnID: 7, Value: []byte("new"),
	}); err != nil {
		t.Fatal(err)
	}
	// Re-write by same transaction replaces the pending version.
	if err := tree.Insert(record.Version{
		Key: record.StringKey("k"), Time: record.TimePending, TxnID: 7, Value: []byte("newer"),
	}); err != nil {
		t.Fatal(err)
	}
	// A different transaction's pending write on the same key is refused.
	if err := tree.Insert(record.Version{
		Key: record.StringKey("k"), Time: record.TimePending, TxnID: 8, Value: []byte("conflict"),
	}); err == nil {
		t.Fatal("conflicting pending write should fail")
	}
	p, err := tree.CommitKey(record.StringKey("k"), 7, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !p.OldOK || string(p.Old.Value) != "committed" || p.Old.Time != 5 {
		t.Errorf("posted old = %v, %v; want the version committed at 5", p.Old, p.OldOK)
	}
	if string(p.New.Value) != "newer" || p.New.Time != 9 || p.New.TxnID != 7 {
		t.Errorf("posted new = %v", p.New)
	}
	v, ok, _ := tree.Get(record.StringKey("k"))
	if !ok || string(v.Value) != "newer" || v.Time != 9 {
		t.Fatalf("Get after commit = %v, %v", v, ok)
	}
	if tree.Now() != 9 {
		t.Errorf("Now = %v, want 9", tree.Now())
	}
	checkOK(t, tree)
	// Committing again fails (no pending version left).
	if _, err := tree.CommitKey(record.StringKey("k"), 7, 10); err == nil {
		t.Error("double commit should fail")
	}
	if err := tree.AbortKey(record.StringKey("k"), 7); err == nil {
		t.Error("abort of committed version should fail")
	}
	// A committed delete is the stamped version; as the prior version of
	// the next commit it counts as absent, as Get sees it.
	for _, w := range []struct {
		txn  uint64
		at   record.Timestamp
		tomb bool
	}{{8, 11, true}, {9, 12, false}} {
		if err := tree.Insert(record.Version{
			Key: record.StringKey("k"), Time: record.TimePending, TxnID: w.txn, Tombstone: w.tomb,
		}); err != nil {
			t.Fatal(err)
		}
		p, err := tree.CommitKey(record.StringKey("k"), w.txn, w.at)
		if err != nil {
			t.Fatal(err)
		}
		if p.New.Tombstone != w.tomb || p.New.Time != w.at || p.OldOK != w.tomb {
			t.Errorf("commit at %v: posted %+v", w.at, p)
		}
	}
}

func TestDeepTreeGrowth(t *testing.T) {
	tree, _, _ := newTestTree(t, PolicyLastUpdate)
	n := 0
	for i := 0; i < 400; i++ {
		put(t, tree, fmt.Sprintf("key%04d", i*7%400), uint64(i+1), fmt.Sprintf("v%d", i))
		n++
	}
	checkOK(t, tree)
	if tree.Stats().Height < 3 {
		t.Fatalf("height = %d, expected a deep tree", tree.Stats().Height)
	}
	cur, hist, err := tree.CountNodes()
	if err != nil {
		t.Fatal(err)
	}
	if cur == 0 {
		t.Error("no current nodes counted")
	}
	if int(tree.Stats().CurrentNodes) != cur {
		t.Errorf("CurrentNodes stat %d != walked count %d", tree.Stats().CurrentNodes, cur)
	}
	if int(tree.Stats().HistoricalNodes) < hist {
		t.Errorf("HistoricalNodes stat %d < walked count %d", tree.Stats().HistoricalNodes, hist)
	}
}

func TestScanAsOfSnapshot(t *testing.T) {
	tree, _, _ := newTestTree(t, PolicyWOBTLike)
	for i := 0; i < 20; i++ {
		put(t, tree, fmt.Sprintf("k%02d", i), uint64(i+1), "old")
	}
	for i := 0; i < 20; i++ {
		put(t, tree, fmt.Sprintf("k%02d", i), uint64(21+i), "new")
	}
	checkOK(t, tree)
	vs, err := tree.ScanAsOf(20, nil, record.InfiniteBound())
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 20 {
		t.Fatalf("snapshot@20 size = %d, want 20", len(vs))
	}
	for _, v := range vs {
		if string(v.Value) != "old" {
			t.Errorf("snapshot@20 contains %s", v)
		}
	}
	vs, _ = tree.ScanAsOf(30, record.StringKey("k05"), record.KeyBound(record.StringKey("k15")))
	if len(vs) != 10 {
		t.Fatalf("range snapshot size = %d, want 10", len(vs))
	}
	want := map[string]string{}
	for i := 5; i < 15; i++ {
		if i < 10 {
			want[fmt.Sprintf("k%02d", i)] = "new" // updated at 21+i <= 30
		} else {
			want[fmt.Sprintf("k%02d", i)] = "old"
		}
	}
	for _, v := range vs {
		if want[string(v.Key)] != string(v.Value) {
			t.Errorf("snapshot@30 %s, want %s", v, want[string(v.Key)])
		}
	}
}

func TestDumpAndViews(t *testing.T) {
	tree, _, _ := newTestTree(t, PolicyWOBTLike)
	put(t, tree, "a", 1, "x")
	s, err := tree.Dump()
	if err != nil {
		t.Fatal(err)
	}
	if len(s) == 0 {
		t.Error("empty dump")
	}
	lv, err := tree.CurrentLeafView(record.StringKey("a"))
	if err != nil || !lv.Leaf || len(lv.Versions) != 1 {
		t.Errorf("CurrentLeafView = %+v, %v", lv, err)
	}
	if lv.String() == "" {
		t.Error("NodeView.String empty")
	}
}
