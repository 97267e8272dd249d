package txn

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/record"
	"repro/internal/storage"
)

func newManager(t *testing.T) (*Manager, *core.Tree) {
	t.Helper()
	mag := storage.NewMagneticDisk(4096, storage.CostModel{})
	worm := storage.NewWORMDisk(storage.WORMConfig{SectorSize: 512})
	tree, err := core.New(mag, worm, core.Config{Policy: core.PolicyLastUpdate, MaxKeySize: 32})
	if err != nil {
		t.Fatal(err)
	}
	return NewManager(NewLatchedStore(tree), tree.Now()), tree
}

func TestCommitMakesWritesVisible(t *testing.T) {
	m, _ := newManager(t)
	tx := m.Begin()
	if err := tx.Put(record.StringKey("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(record.StringKey("b"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	// Invisible to others before commit.
	r := m.ReadOnly()
	if _, ok, _ := r.Get(record.StringKey("a")); ok {
		t.Error("uncommitted write visible to reader")
	}
	// Visible to self.
	if v, ok, _ := tx.Get(record.StringKey("a")); !ok || string(v.Value) != "1" {
		t.Errorf("read-your-writes failed: %v, %v", v, ok)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Both writes share one commit timestamp.
	r2 := m.ReadOnly()
	va, okA, _ := r2.Get(record.StringKey("a"))
	vb, okB, _ := r2.Get(record.StringKey("b"))
	if !okA || !okB {
		t.Fatal("committed writes missing")
	}
	if va.Time != vb.Time {
		t.Errorf("commit timestamps differ: %v vs %v", va.Time, vb.Time)
	}
	if m.Stats().Committed != 1 {
		t.Errorf("stats: %+v", m.Stats())
	}
}

func TestAbortErasesWrites(t *testing.T) {
	m, tree := newManager(t)
	if err := m.Update(func(tx *Txn) error { return tx.Put(record.StringKey("k"), []byte("keep")) }); err != nil {
		t.Fatal(err)
	}
	tx := m.Begin()
	tx.Put(record.StringKey("k"), []byte("discard"))
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	v, ok, _ := m.ReadOnly().Get(record.StringKey("k"))
	if !ok || string(v.Value) != "keep" {
		t.Fatalf("after abort Get = %v, %v", v, ok)
	}
	// The aborted write left no trace in the version history.
	h, _ := tree.History(record.StringKey("k"))
	if len(h) != 1 {
		t.Fatalf("history = %v, aborted write must leave no trace", h)
	}
	if m.Stats().Aborted != 1 {
		t.Errorf("stats: %+v", m.Stats())
	}
}

func TestNoWaitLockConflict(t *testing.T) {
	m, _ := newManager(t)
	tx1 := m.Begin()
	tx2 := m.Begin()
	if err := tx1.Put(record.StringKey("k"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	err := tx2.Put(record.StringKey("k"), []byte("2"))
	if !errors.Is(err, ErrLockConflict) {
		t.Fatalf("conflicting write = %v, want ErrLockConflict", err)
	}
	if m.Stats().Conflicts != 1 {
		t.Errorf("stats: %+v", m.Stats())
	}
	// After tx1 finishes, tx2 can proceed.
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Put(record.StringKey("k"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	v, _, _ := m.ReadOnly().Get(record.StringKey("k"))
	if string(v.Value) != "2" {
		t.Fatalf("final value = %s", v.Value)
	}
}

func TestReadOnlySnapshotIsolation(t *testing.T) {
	m, _ := newManager(t)
	m.Update(func(tx *Txn) error { return tx.Put(record.StringKey("x"), []byte("v1")) })
	r := m.ReadOnly()
	// Later updates do not affect the reader.
	m.Update(func(tx *Txn) error { return tx.Put(record.StringKey("x"), []byte("v2")) })
	m.Update(func(tx *Txn) error { return tx.Delete(record.StringKey("x")) })
	v, ok, err := r.Get(record.StringKey("x"))
	if err != nil || !ok || string(v.Value) != "v1" {
		t.Fatalf("reader saw %v, %v, %v; want v1", v, ok, err)
	}
	// A fresh reader sees the delete.
	if _, ok, _ := m.ReadOnly().Get(record.StringKey("x")); ok {
		t.Error("fresh reader should see the delete")
	}
	// Scan at the snapshot.
	vs, err := r.Scan(nil, record.InfiniteBound())
	if err != nil || len(vs) != 1 || string(vs[0].Value) != "v1" {
		t.Fatalf("reader scan = %v, %v", vs, err)
	}
}

func TestReaderNeverSeesPendingData(t *testing.T) {
	m, _ := newManager(t)
	m.Update(func(tx *Txn) error { return tx.Put(record.StringKey("k"), []byte("old")) })
	tx := m.Begin()
	tx.Put(record.StringKey("k"), []byte("inflight"))
	r := m.ReadOnly()
	v, ok, _ := r.Get(record.StringKey("k"))
	if !ok || string(v.Value) != "old" {
		t.Fatalf("reader saw %v, %v; must see the committed version", v, ok)
	}
	tx.Commit()
	// Reader's snapshot predates the commit: still "old".
	v, _, _ = r.Get(record.StringKey("k"))
	if string(v.Value) != "old" {
		t.Error("reader snapshot moved after a later commit")
	}
}

func TestUpdateHelperAbortsOnError(t *testing.T) {
	m, _ := newManager(t)
	sentinel := errors.New("boom")
	err := m.Update(func(tx *Txn) error {
		tx.Put(record.StringKey("k"), []byte("x"))
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Update error = %v", err)
	}
	if _, ok, _ := m.ReadOnly().Get(record.StringKey("k")); ok {
		t.Error("write survived aborted Update")
	}
}

func TestDoneTransactionsRejectUse(t *testing.T) {
	m, _ := newManager(t)
	tx := m.Begin()
	tx.Put(record.StringKey("k"), []byte("x"))
	tx.Commit()
	if err := tx.Put(record.StringKey("k"), []byte("y")); !errors.Is(err, ErrDone) {
		t.Errorf("Put after commit = %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrDone) {
		t.Errorf("double commit = %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrDone) {
		t.Errorf("abort after commit = %v", err)
	}
	if _, _, err := tx.Get(record.StringKey("k")); !errors.Is(err, ErrDone) {
		t.Errorf("Get after commit = %v", err)
	}
}

func TestEmptyCommit(t *testing.T) {
	m, _ := newManager(t)
	before := m.Now()
	if err := m.Begin().Commit(); err != nil {
		t.Fatal(err)
	}
	if m.Now() != before {
		t.Error("empty commit should not advance the clock")
	}
}

func TestCommitHookSeesOldAndNew(t *testing.T) {
	m, _ := newManager(t)
	type event struct {
		old, new string
		oldOK    bool
	}
	var events []event
	m.SetCommitHook(func(ct record.Timestamp, oldV record.Version, oldOK bool, newV record.Version) error {
		ev := event{new: string(newV.Value), oldOK: oldOK}
		if oldOK {
			ev.old = string(oldV.Value)
		}
		if newV.Tombstone {
			ev.new = "<del>"
		}
		events = append(events, ev)
		return nil
	})
	m.Update(func(tx *Txn) error { return tx.Put(record.StringKey("k"), []byte("v1")) })
	m.Update(func(tx *Txn) error { return tx.Put(record.StringKey("k"), []byte("v2")) })
	m.Update(func(tx *Txn) error { return tx.Delete(record.StringKey("k")) })
	want := []event{{old: "", oldOK: false, new: "v1"}, {old: "v1", oldOK: true, new: "v2"}, {old: "v2", oldOK: true, new: "<del>"}}
	if len(events) != len(want) {
		t.Fatalf("events = %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, events[i], want[i])
		}
	}
}

func TestTombstoneReadYourWrites(t *testing.T) {
	m, _ := newManager(t)
	m.Update(func(tx *Txn) error { return tx.Put(record.StringKey("k"), []byte("x")) })
	tx := m.Begin()
	tx.Delete(record.StringKey("k"))
	if _, ok, _ := tx.Get(record.StringKey("k")); ok {
		t.Error("transaction should see its own delete")
	}
	tx.Abort()
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	m, tree := newManager(t)
	for i := 0; i < 20; i++ {
		k := record.StringKey(fmt.Sprintf("key%02d", i))
		if err := m.Update(func(tx *Txn) error { return tx.Put(k, []byte("init")) }); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := record.StringKey(fmt.Sprintf("key%02d", (w*5+i)%20))
				err := m.Update(func(tx *Txn) error {
					return tx.Put(k, []byte(fmt.Sprintf("w%d-%d", w, i)))
				})
				if err != nil && !errors.Is(err, ErrLockConflict) {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rt := m.ReadOnly()
				vs, err := rt.Scan(nil, record.InfiniteBound())
				if err != nil {
					errs <- err
					return
				}
				// A reader's snapshot is internally consistent: all
				// versions committed at or before its timestamp.
				for _, v := range vs {
					if v.Time > rt.Timestamp() {
						errs <- fmt.Errorf("snapshot leak: version %v after reader time %v", v.Time, rt.Timestamp())
						return
					}
				}
				if len(vs) != 20 {
					errs <- fmt.Errorf("snapshot size %d, want 20", len(vs))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// failingStore injects a single CommitKey failure for one key, to
// exercise the torn-commit cleanup path.
type failingStore struct {
	Store
	failKey string
	fired   bool
}

func (f *failingStore) CommitKey(k record.Key, txnID uint64, ct record.Timestamp) (core.Posted, error) {
	if string(k) == f.failKey && !f.fired {
		f.fired = true
		return core.Posted{}, fmt.Errorf("injected commit failure for %s", k)
	}
	return f.Store.CommitKey(k, txnID, ct)
}

func TestCommitFailureReleasesLocksAndBurnsTimestamp(t *testing.T) {
	mag := storage.NewMagneticDisk(4096, storage.CostModel{})
	worm := storage.NewWORMDisk(storage.WORMConfig{SectorSize: 512})
	tree, err := core.New(mag, worm, core.Config{Policy: core.PolicyLastUpdate, MaxKeySize: 32})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(&failingStore{Store: NewLatchedStore(tree), failKey: "b"}, tree.Now())

	tx := m.Begin()
	for _, k := range []string{"a", "b", "c"} {
		if err := tx.Put(record.StringKey(k), []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit should have failed on injected error")
	}
	if tx.CommitTime() != 0 {
		t.Errorf("failed commit reports commit time %v", tx.CommitTime())
	}
	// "a" (sorted first) was stamped at time 1 before "b" failed, so the
	// clock must have burned timestamp 1: no later transaction may share it.
	if m.Now() != 1 {
		t.Errorf("clock = %v, want 1 (torn timestamp burned)", m.Now())
	}
	// The pending versions of "b" and "c" must be erased.
	for _, k := range []string{"b", "c"} {
		if _, ok, _ := m.ReadOnly().Get(record.StringKey(k)); ok {
			t.Errorf("key %s visible after failed commit", k)
		}
	}
	// Every lock must be released: a fresh transaction can write and
	// commit all three keys, at a strictly later timestamp.
	tx2 := m.Begin()
	for _, k := range []string{"a", "b", "c"} {
		if err := tx2.Put(record.StringKey(k), []byte("v2-"+k)); err != nil {
			t.Fatalf("lock leaked for %s: %v", k, err)
		}
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx2.CommitTime() != 2 {
		t.Errorf("second commit at %v, want 2", tx2.CommitTime())
	}
	st := m.Stats()
	if st.Committed != 1 || st.Aborted != 1 {
		t.Errorf("stats = %+v, want 1 committed / 1 aborted", st)
	}
}
