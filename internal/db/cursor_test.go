package db

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/record"
	"repro/internal/txn"
)

// spreadKey mirrors workload.SpreadKey: binary keys whose high-order
// bytes are uniform, so every shard count receives traffic.
func spreadKey(i uint64) record.Key {
	return record.Uint64Key(i * 0x9e3779b97f4a7c15)
}

// sameVersions asserts two version slices are byte-identical: same
// length, and per element same key bytes, timestamp, tombstone flag, and
// value bytes.
func cursorSameVersions(t *testing.T, label string, got, want []record.Version) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d versions, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !g.Key.Equal(w.Key) || g.Time != w.Time || g.Tombstone != w.Tombstone || !bytes.Equal(g.Value, w.Value) {
			t.Fatalf("%s[%d] = %v, want %v", label, i, g, w)
		}
	}
}

func reversed(vs []record.Version) []record.Version {
	out := make([]record.Version, len(vs))
	for i, v := range vs {
		out[len(vs)-1-i] = v
	}
	return out
}

// TestCursorEquivalenceProperty is the multi-shard equivalence property
// test of the streaming read API: forward, reverse, limited, and
// windowed cursors, query.Diff, and DB.History must be byte-identical to
// core's recursive reference scans under every shard count.
func TestCursorEquivalenceProperty(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 5, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(shards)*97 + 5))
			d := open(t, Config{Shards: shards, LeafCapacity: 512})
			const keySpace = 80
			for op := 0; op < 500; op++ {
				k := spreadKey(uint64(rng.Intn(keySpace)))
				err := d.Update(func(tx *txn.Txn) error {
					if rng.Intn(9) == 0 {
						return tx.Delete(k)
					}
					return tx.Put(k, []byte(fmt.Sprintf("v%d", op)))
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			now := int(d.Now())
			for trial := 0; trial < 40; trial++ {
				at := record.Timestamp(1 + rng.Intn(now))
				var low record.Key
				high := record.InfiniteBound()
				if trial%3 != 0 {
					low = spreadKey(uint64(rng.Intn(keySpace)))
					high = record.KeyBound(spreadKey(uint64(rng.Intn(keySpace))))
				}

				// Oracle: the recursive reference scan, per shard.
				want, err := refScanAsOf(d, at, low, high)
				if err != nil {
					t.Fatal(err)
				}

				r := d.ReadAt(at)
				got, err := r.Cursor(low, high, ScanOptions{}).Collect()
				if err != nil {
					t.Fatal(err)
				}
				cursorSameVersions(t, "forward", got, want)

				gotRev, err := r.Cursor(low, high, ScanOptions{Reverse: true}).Collect()
				if err != nil {
					t.Fatal(err)
				}
				cursorSameVersions(t, "reverse", gotRev, reversed(want))

				limit := rng.Intn(len(want) + 2)
				gotLim, err := r.Cursor(low, high, ScanOptions{Limit: limit}).Collect()
				if err != nil {
					t.Fatal(err)
				}
				wantLim := want
				if limit > 0 && limit < len(want) {
					wantLim = want[:limit]
				}
				if limit > 0 {
					cursorSameVersions(t, "limit", gotLim, wantLim)
				}

				// Window mode: the paged window cursor against the
				// per-shard reference. From starts at 1: From=To=0 is
				// the "no window" sentinel, not a window.
				from := record.Timestamp(1 + rng.Intn(now))
				to := from + record.Timestamp(rng.Intn(now))
				wantWin, err := refScanRange(d, low, high, from, to)
				if err != nil {
					t.Fatal(err)
				}
				gotWin, err := d.Cursor(low, high, ScanOptions{From: from, To: to}).Collect()
				if err != nil {
					t.Fatal(err)
				}
				cursorSameVersions(t, "window", gotWin, wantWin)
				gotWinRev, err := d.Cursor(low, high, ScanOptions{From: from, To: to, Reverse: true}).Collect()
				if err != nil {
					t.Fatal(err)
				}
				cursorSameVersions(t, "window-reverse", gotWinRev, reversed(wantWin))

				// query.Diff folds the same window stream; core's
				// Tree.Diff per shard is its oracle.
				wantDiff, err := refDiff(d, low, high, from, to)
				if err != nil {
					t.Fatal(err)
				}
				gotDiff, err := queryDiff(d, low, high, from, to)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameChanges(gotDiff, wantDiff); err != nil {
					t.Fatalf("diff: %v", err)
				}

				// DB.History collects the window cursor query.History
				// runs on; core's recursive Tree.History is its oracle.
				k := spreadKey(uint64(rng.Intn(keySpace)))
				wantHist, err := refHistory(d, k)
				if err != nil {
					t.Fatal(err)
				}
				gotHist, err := d.History(k)
				if err != nil {
					t.Fatal(err)
				}
				cursorSameVersions(t, "history", gotHist, wantHist)
			}
		})
	}
}

// TestAbandonedCursorDoesNotBlockWriters verifies the latch contract:
// a cursor abandoned mid-iteration (without Close) holds no shard latch,
// so writers on every shard proceed immediately.
func TestAbandonedCursorDoesNotBlockWriters(t *testing.T) {
	const shards = 4
	d := open(t, Config{Shards: shards})
	for i := 0; i < 64; i++ {
		err := d.Update(func(tx *txn.Txn) error {
			return tx.Put(spreadKey(uint64(i)), []byte("seed"))
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	c := d.Cursor(nil, record.InfiniteBound(), ScanOptions{})
	if !c.Next() {
		t.Fatalf("cursor empty: %v", c.Err())
	}
	// c is now mid-iteration and deliberately neither drained nor
	// closed. Every shard must accept exclusive-latch writes anyway.
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 256; i++ {
			err := d.Update(func(tx *txn.Txn) error {
				return tx.Put(spreadKey(uint64(i)), []byte("after"))
			})
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("writers blocked: an abandoned cursor is holding a shard latch")
	}

	// The abandoned cursor still finishes its snapshot correctly.
	n := 1
	for c.Next() {
		if string(c.Version().Value) != "seed" {
			t.Fatalf("cursor leaked a post-snapshot write: %v", c.Version())
		}
		n++
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
	if n != 64 {
		t.Fatalf("cursor yielded %d versions, want 64", n)
	}
}

// TestCursorLimit1PageReads is the acceptance check for lazy reads: over
// a snapshot of >=100k versions, a Limit=1 cursor performs O(tree-depth)
// page reads — measured at the buffer pool, through which every page
// fetch passes — while a full scan reads the whole current key space.
// Window cursors stream in both directions: a reverse Limit=1 window
// cursor costs about what the forward one does, not a full window scan.
func TestCursorLimit1PageReads(t *testing.T) {
	// Small leaves keep the build fast and the tree deep: the point is
	// the O(height) bound, not the leaf fan-out.
	d := open(t, Config{LeafCapacity: 512, IndexCapacity: 1024})
	const (
		keys    = 20_000
		rounds  = 5 // 100k versions total
		perTxn  = 100
		valSize = 8
	)
	val := bytes.Repeat([]byte("x"), valSize)
	for r := 0; r < rounds; r++ {
		for base := 0; base < keys; base += perTxn {
			err := d.Update(func(tx *txn.Txn) error {
				for i := base; i < base+perTxn; i++ {
					if err := tx.Put(spreadKey(uint64(i)), val); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := d.Stats().Tree; st.Inserts < 100_000 {
		t.Fatalf("built only %d versions", st.Inserts)
	}

	height := d.Stats().Tree.Height
	if height < 2 {
		t.Fatalf("tree of height %d is too shallow to measure", height)
	}

	pageFetches := func() uint64 {
		st := d.Stats().Buffer
		return st.Hits + st.Misses
	}
	before := pageFetches()
	got, err := d.Cursor(nil, record.InfiniteBound(), ScanOptions{Limit: 1}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("Limit=1 cursor yielded %d versions", len(got))
	}
	reads := pageFetches() - before
	if reads > uint64(height)+1 {
		t.Fatalf("Limit=1 cursor read %d pages, want <= tree height %d + 1", reads, height)
	}

	// Contrast: a full snapshot collect must touch at least one page per
	// current leaf — orders of magnitude more than the cursor.
	before = pageFetches()
	all, err := d.ReadAt(d.Now()).Scan(nil, record.InfiniteBound())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != keys {
		t.Fatalf("full scan = %d keys, want %d", len(all), keys)
	}
	fullReads := pageFetches() - before
	if fullReads < 50*reads {
		t.Fatalf("full scan read %d pages vs cursor %d: the cursor is not lazy", fullReads, reads)
	}

	// Window mode, over all of time: Limit=1 in either direction reads
	// one current leaf's key range, while a full window collect reads
	// every page.
	windowReads := func(opts ScanOptions) uint64 {
		t.Helper()
		before := pageFetches()
		vs, err := d.Cursor(nil, record.InfiniteBound(), opts).Collect()
		if err != nil {
			t.Fatal(err)
		}
		if opts.Limit > 0 && len(vs) != opts.Limit {
			t.Fatalf("window cursor %+v yielded %d versions", opts, len(vs))
		}
		return pageFetches() - before
	}
	window := ScanOptions{From: 1, To: record.TimeInfinity}
	fullWindow := windowReads(window)
	window.Limit = 1
	fwd := windowReads(window)
	window.Reverse = true
	rev := windowReads(window)
	if rev > 4*fwd {
		t.Fatalf("reverse Limit=1 window cursor read %d pages vs forward %d: reverse does not stream", rev, fwd)
	}
	if fullWindow < 50*rev {
		t.Fatalf("full window collect read %d pages vs reverse Limit=1 window cursor %d: the cursor is not lazy", fullWindow, rev)
	}
	t.Logf("page reads: window Limit=1 forward %d, reverse %d; full window %d", fwd, rev, fullWindow)
}

// TestBufferPagesContract pins the Config.BufferPages semantics: 0 means
// the 256-page default, NoCachePages (-1) disables caching.
func TestBufferPagesContract(t *testing.T) {
	cached := open(t, Config{}) // BufferPages 0 -> default pool
	put(t, cached, "k", "v")
	for i := 0; i < 10; i++ {
		if _, ok, err := cached.Get(record.StringKey("k")); !ok || err != nil {
			t.Fatal(ok, err)
		}
	}
	if st := cached.Stats().Buffer; st.Hits+st.Misses == 0 {
		t.Fatal("BufferPages=0 must enable the default pool")
	}

	raw := open(t, Config{BufferPages: NoCachePages})
	put(t, raw, "k", "v")
	magBefore := raw.Stats().Magnetic.Reads
	for i := 0; i < 10; i++ {
		if _, ok, err := raw.Get(record.StringKey("k")); !ok || err != nil {
			t.Fatal(ok, err)
		}
	}
	st := raw.Stats()
	if st.Buffer.Hits+st.Buffer.Misses != 0 {
		t.Fatalf("BufferPages=NoCachePages left the pool active: %+v", st.Buffer)
	}
	if st.Magnetic.Reads == magBefore {
		t.Fatal("reads did not reach the device with caching disabled")
	}
}

// TestSecondaryCursorEquivalence checks the streaming secondary fetch —
// a primary scan semi-joined with the index lookup (JoinSecondary) —
// against point reads of the looked-up keys, including Limit and
// Reverse.
func TestSecondaryCursorEquivalence(t *testing.T) {
	d := open(t, Config{Shards: 2})
	if err := d.CreateSecondary("dept", deptExtract); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		dept := fmt.Sprintf("dept%d", i%3)
		err := d.Update(func(tx *txn.Txn) error {
			return tx.Put(spreadKey(uint64(i)), []byte(dept+"|payload"))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	at := d.Now()
	want, err := refFetchBySecondary(d, "dept", record.StringKey("dept1"), at)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no records for dept1")
	}
	fetch := func(reverse bool, limit uint64) []record.Version {
		t.Helper()
		scan := query.Scan(nil, record.InfiniteBound())
		scan.Reverse = reverse
		spec := scan.JoinSecondary("dept", record.StringKey("dept1"), at)
		if limit > 0 {
			spec = spec.WithLimit(limit)
		}
		op, err := d.QueryAt(at, spec)
		if err != nil {
			t.Fatal(err)
		}
		defer op.Close()
		var out []record.Version
		for op.Next() {
			out = append(out, op.Row().Versions...)
		}
		if err := op.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	cursorSameVersions(t, "secondary", fetch(false, 0), want)
	cursorSameVersions(t, "secondary-reverse", fetch(true, 0), reversed(want))
	cursorSameVersions(t, "secondary-limit", fetch(false, 2), want[:2])
}

// TestSecondaryJoinPageReads pins the cost of a selective secondary
// fetch (§3.6): a JoinSecondary over a plain scan reads about the index
// lookup plus one root-to-leaf descent per match, not every primary leaf
// between the first and last matching key.
func TestSecondaryJoinPageReads(t *testing.T) {
	d := open(t, Config{LeafCapacity: 512, IndexCapacity: 1024})
	if err := d.CreateSecondary("dept", deptExtract); err != nil {
		t.Fatal(err)
	}
	const (
		keys   = 20_000
		perTxn = 100
	)
	hits := map[int]bool{7: true, keys / 2: true, keys - 3: true}
	for base := 0; base < keys; base += perTxn {
		err := d.Update(func(tx *txn.Txn) error {
			for i := base; i < base+perTxn; i++ {
				val := []byte("x")
				if hits[i] {
					val = []byte("rare|payload")
				}
				if err := tx.Put(spreadKey(uint64(i)), val); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	at := d.Now()
	height := d.Stats().Tree.Height
	pageFetches := func() uint64 {
		st := d.Stats().Buffer
		return st.Hits + st.Misses
	}
	skey := record.StringKey("rare")

	before := pageFetches()
	want, err := refFetchBySecondary(d, "dept", skey, at)
	if err != nil {
		t.Fatal(err)
	}
	pointReads := pageFetches() - before
	if len(want) != len(hits) {
		t.Fatalf("reference fetch = %d records, want %d", len(want), len(hits))
	}

	before = pageFetches()
	got, err := queryBySecondary(d, "dept", skey, at)
	if err != nil {
		t.Fatal(err)
	}
	joinReads := pageFetches() - before
	cursorSameVersions(t, "secondary join", got, want)
	if limit := pointReads + uint64(len(hits)*(height+1)); joinReads > limit {
		t.Fatalf("secondary join read %d pages, want <= %d (lookup + point reads %d, plus one descent of height %d per match)",
			joinReads, limit, pointReads, height)
	}

	before = pageFetches()
	if _, err := d.ReadAt(at).Scan(nil, record.InfiniteBound()); err != nil {
		t.Fatal(err)
	}
	fullReads := pageFetches() - before
	if fullReads < 50*joinReads {
		t.Fatalf("full scan read %d pages vs secondary join %d: the join walks the primary index", fullReads, joinReads)
	}
	t.Logf("page reads: lookup + point gets %d, secondary join %d, full scan %d", pointReads, joinReads, fullReads)
}

// TestRangeIteratorThroughDB drives the iter.Seq2 form end to end,
// including early break and pagination resume.
func TestRangeIteratorThroughDB(t *testing.T) {
	d := open(t, Config{Shards: 3})
	for i := 0; i < 30; i++ {
		err := d.Update(func(tx *txn.Txn) error {
			return tx.Put(spreadKey(uint64(i)), []byte(fmt.Sprintf("v%d", i)))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	want, err := refScanAsOf(d, d.Now(), nil, record.InfiniteBound())
	if err != nil {
		t.Fatal(err)
	}

	// Paginate: pages of 7, resuming strictly after the last key seen
	// via ScanOptions.After.
	var got []record.Version
	var after record.Key
	snap := d.ReadOnly()
	for {
		n := 0
		for v, err := range snap.Range(nil, record.InfiniteBound(), ScanOptions{After: after, Limit: 7}) {
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, v)
			after = v.Key.Clone()
			n++
		}
		if n < 7 {
			break
		}
	}
	cursorSameVersions(t, "paginated", got, want)
}
