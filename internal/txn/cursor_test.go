package txn

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/record"
)

// seedKeys commits n keys k000..k(n-1), one commit each, value = key.
func seedKeys(t *testing.T, m *Manager, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := record.StringKey(fmt.Sprintf("k%03d", i))
		if err := m.Update(func(tx *Txn) error { return tx.Put(k, []byte(k)) }); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCursorStreamsSnapshot(t *testing.T) {
	m, _ := newManager(t)
	seedKeys(t, m, 40)
	r := m.ReadOnly()
	want, err := r.Scan(nil, record.InfiniteBound())
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 40 {
		t.Fatalf("scan = %d versions, want 40", len(want))
	}

	got, err := r.Cursor(nil, record.InfiniteBound(), ScanOptions{}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("cursor = %d versions, scan %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Key.Equal(want[i].Key) || got[i].Time != want[i].Time {
			t.Fatalf("cursor[%d] = %v, scan %v", i, got[i], want[i])
		}
	}

	// Reverse yields the exact mirror.
	rev, err := r.Cursor(nil, record.InfiniteBound(), ScanOptions{Reverse: true}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !rev[i].Key.Equal(want[len(want)-1-i].Key) {
			t.Fatalf("reverse cursor[%d] = %s", i, rev[i].Key)
		}
	}

	// Limit truncates the same sequence.
	lim, err := r.Cursor(nil, record.InfiniteBound(), ScanOptions{Limit: 7}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(lim) != 7 || !lim[6].Key.Equal(want[6].Key) {
		t.Fatalf("limit cursor = %d versions ending %s", len(lim), lim[len(lim)-1].Key)
	}
}

func TestCursorSnapshotIsolationAcrossNext(t *testing.T) {
	m, _ := newManager(t)
	seedKeys(t, m, 20)
	r := m.ReadOnly()
	c := r.Cursor(nil, record.InfiniteBound(), ScanOptions{})
	if !c.Next() {
		t.Fatal(c.Err())
	}
	// Commits that land mid-iteration are invisible at the cursor's
	// timestamp: no latch is held between Next calls, the timestamp is
	// the isolation mechanism.
	if err := m.Update(func(tx *Txn) error {
		return tx.Put(record.StringKey("k005"), []byte("overwritten"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(func(tx *Txn) error {
		return tx.Put(record.StringKey("zzz"), []byte("new"))
	}); err != nil {
		t.Fatal(err)
	}
	n := 1
	for c.Next() {
		v := c.Version()
		if string(v.Value) == "overwritten" || v.Key.Equal(record.StringKey("zzz")) {
			t.Fatalf("cursor at t=%d observed post-snapshot commit %s", c.Timestamp(), v)
		}
		n++
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
	if n != 20 {
		t.Fatalf("cursor yielded %d versions, want 20", n)
	}
}

func TestCursorWindowMatchesScanRange(t *testing.T) {
	m, tree := newManager(t)
	seedKeys(t, m, 10)
	for round := 0; round < 3; round++ {
		for i := 0; i < 10; i += 2 {
			k := record.StringKey(fmt.Sprintf("k%03d", i))
			if err := m.Update(func(tx *Txn) error {
				return tx.Put(k, []byte(fmt.Sprintf("r%d", round)))
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The recursive core.Tree.ScanRange is the reference the paged
	// window cursor is checked against.
	want, err := tree.ScanRange(nil, record.InfiniteBound(), 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadOnly().Cursor(nil, record.InfiniteBound(), ScanOptions{From: 5, To: 20}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("window cursor = %d versions, ScanRange %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Key.Equal(want[i].Key) || got[i].Time != want[i].Time {
			t.Fatalf("window cursor[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// The reverse window cursor streams the same versions backwards.
	rev, err := m.ReadOnly().Cursor(nil, record.InfiniteBound(), ScanOptions{From: 5, To: 20, Reverse: true}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rev) != len(want) {
		t.Fatalf("reverse window cursor = %d versions, ScanRange %d", len(rev), len(want))
	}
	for i := range want {
		if w := want[len(want)-1-i]; !rev[i].Key.Equal(w.Key) || rev[i].Time != w.Time {
			t.Fatalf("reverse window cursor[%d] = %v, want %v", i, rev[i], w)
		}
	}
	// Empty window, like ScanRange.
	if vs, err := m.ReadOnly().Cursor(nil, record.InfiniteBound(), ScanOptions{From: 9, To: 9}).Collect(); err != nil || len(vs) != 0 {
		t.Fatalf("empty window cursor = %d versions, err %v", len(vs), err)
	}
}

func TestCursorOptionConflict(t *testing.T) {
	m, _ := newManager(t)
	seedKeys(t, m, 3)
	c := m.ReadOnly().Cursor(nil, record.InfiniteBound(), ScanOptions{At: 1, From: 1, To: 2})
	if c.Next() {
		t.Fatal("conflicting options must not yield versions")
	}
	if !errors.Is(c.Err(), ErrCursorOptions) {
		t.Fatalf("Err = %v, want ErrCursorOptions", c.Err())
	}
}

func TestRangeIteratorEarlyBreak(t *testing.T) {
	m, _ := newManager(t)
	seedKeys(t, m, 30)
	r := m.ReadOnly()
	n := 0
	for v, err := range r.Range(nil, record.InfiniteBound(), ScanOptions{}) {
		if err != nil {
			t.Fatal(err)
		}
		if len(v.Key) == 0 {
			t.Fatal("empty key from Range")
		}
		n++
		if n == 5 {
			break
		}
	}
	if n != 5 {
		t.Fatalf("broke after %d versions, want 5", n)
	}
	// The manager stays fully usable after the abandoned iteration.
	if err := m.Update(func(tx *Txn) error {
		return tx.Put(record.StringKey("after"), []byte("x"))
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCursorAfterResume(t *testing.T) {
	m, _ := newManager(t)
	seedKeys(t, m, 12)
	r := m.ReadOnly()
	want, err := r.Scan(nil, record.InfiniteBound())
	if err != nil {
		t.Fatal(err)
	}
	// Page through with After = last key seen; no row repeats, none skip.
	var got []record.Version
	var after record.Key
	for {
		vs, err := r.Cursor(nil, record.InfiniteBound(), ScanOptions{After: after, Limit: 5}).Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) == 0 {
			break
		}
		got = append(got, vs...)
		after = vs[len(vs)-1].Key
	}
	if len(got) != len(want) {
		t.Fatalf("paginated %d versions, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Key.Equal(want[i].Key) {
			t.Fatalf("page resume broke at %d: %s vs %s", i, got[i].Key, want[i].Key)
		}
	}
	// After overrides low, exclusively: resuming after a key must not
	// re-yield it.
	vs, err := r.Cursor(nil, record.InfiniteBound(), ScanOptions{After: want[0].Key, Limit: 1}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || !vs[0].Key.Equal(want[1].Key) {
		t.Fatalf("After resume yielded %v, want %s", vs, want[1].Key)
	}
}

func TestCursorAtOverride(t *testing.T) {
	m, _ := newManager(t)
	seedKeys(t, m, 6) // commit times 1..6
	r := m.ReadOnly() // snapshot at 6
	got, err := r.Cursor(nil, record.InfiniteBound(), ScanOptions{At: 3}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("cursor at t=3 sees %d versions, want 3", len(got))
	}
}
