package db

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/record"
	"repro/internal/txn"
	"repro/internal/wal"
)

// openDur opens a durable database in dir and registers cleanup.
func openDur(t *testing.T, cfg Config) *DB {
	t.Helper()
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestDurableSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d := openDur(t, Config{Dir: dir, Shards: 4})
	for i := 0; i < 50; i++ {
		put(t, d, fmt.Sprintf("key%03d", i%10), fmt.Sprintf("val%d", i))
	}
	if err := d.Update(func(tx *txn.Txn) error { return tx.Delete(record.StringKey("key003")) }); err != nil {
		t.Fatal(err)
	}
	wantNow := d.Now()
	wantHist, err := d.History(record.StringKey("key007"))
	if err != nil {
		t.Fatal(err)
	}
	wantScan, err := refScanAsOf(d, wantNow, nil, record.InfiniteBound())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Use after close fails cleanly.
	if err := d.Update(func(tx *txn.Txn) error { return tx.Put(record.StringKey("x"), nil) }); err == nil {
		t.Fatal("commit after Close should fail")
	}

	d2 := openDur(t, Config{Dir: dir})
	if d2.Shards() != 4 {
		t.Fatalf("reopened with %d shards, want 4", d2.Shards())
	}
	if d2.Now() != wantNow {
		t.Fatalf("reopened clock = %v, want %v", d2.Now(), wantNow)
	}
	gotScan, err := d2.ReadAt(wantNow).Scan(nil, record.InfiniteBound())
	if err != nil {
		t.Fatal(err)
	}
	assertSameVersions(t, "scan", gotScan, wantScan)
	gotHist, err := d2.History(record.StringKey("key007"))
	if err != nil {
		t.Fatal(err)
	}
	assertSameVersions(t, "history", gotHist, wantHist)
	if _, ok, _ := d2.Get(record.StringKey("key003")); ok {
		t.Error("deleted key resurrected by recovery")
	}
	if err := d2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The reopened database keeps committing durably.
	put(t, d2, "after", "restart")
	if d2.Now() != wantNow+1 {
		t.Errorf("commit after reopen at %v, want %v", d2.Now(), wantNow+1)
	}
}

// assertSameVersions compares two version slices on the durable fields
// (TxnID is incidental: fresh transactions renumber after a reopen).
func assertSameVersions(t *testing.T, what string, got, want []record.Version) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d versions, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !g.Key.Equal(w.Key) || g.Time != w.Time || g.Tombstone != w.Tombstone ||
			string(g.Value) != string(w.Value) {
			t.Fatalf("%s[%d] = %+v, want %+v", what, i, g, w)
		}
	}
}

func TestDurableSecondariesRecovered(t *testing.T) {
	dir := t.TempDir()
	secs := map[string]SecondaryExtract{"dept": deptExtract}
	d := openDur(t, Config{Dir: dir, Shards: 2, Secondaries: secs})
	for i := 0; i < 40; i++ {
		put(t, d, fmt.Sprintf("emp%03d", i%8), fmt.Sprintf("dept%02d|rev%d", i%3, i))
	}
	at := d.Now()
	want, err := queryBySecondary(d, "dept", record.StringKey("dept01"), at)
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint so recovery exercises the dump+replay composition, then
	// write more so the tail is non-empty.
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	put(t, d, "emp000", "dept01|post-checkpoint")
	at2 := d.Now()
	d.Close()

	// Reopening without extractors is refused.
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("reopen without extractors should fail")
	}
	if _, err := Open(Config{Dir: dir, Secondaries: map[string]SecondaryExtract{"wrong": deptExtract}}); err == nil {
		t.Fatal("reopen with wrong extractor name should fail")
	}

	d2 := openDur(t, Config{Dir: dir, Secondaries: secs})
	got, err := queryBySecondary(d2, "dept", record.StringKey("dept01"), at)
	if err != nil {
		t.Fatal(err)
	}
	assertSameVersions(t, "secondary fetch", got, want)
	if n, _ := d2.CountSecondary("dept", record.StringKey("dept01"), at2); n == 0 {
		t.Error("post-checkpoint secondary update lost")
	}
}

func TestDurableSecondariesMultiShardCheckpointReopen(t *testing.T) {
	// Regression: the secondary index is ONE tree spanning all shards,
	// so checkpoint reload must apply versions in GLOBAL commit-time
	// order — applying shard 0's dump fully before shard 1's would feed
	// the secondary tree decreasing commit times and fail the reopen.
	// Keys here are spread so consecutive commits land on far-apart
	// shards.
	dir := t.TempDir()
	secs := map[string]SecondaryExtract{"dept": deptExtract}
	d := openDur(t, Config{Dir: dir, Shards: 4, Secondaries: secs, CheckpointBytes: -1})
	// First key byte rotates through 0x21/0x61/0xA1/0xE1 — one per
	// 16-bit-prefix shard quarter — so consecutive commit times land on
	// different shards.
	shardKey := func(i int) string {
		return fmt.Sprintf("%c-key%02d", byte(i%4)*64+33, i%6)
	}
	for i := 0; i < 60; i++ {
		put(t, d, shardKey(i), fmt.Sprintf("dept%02d|rev%d", i%3, i))
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A post-checkpoint tail touching every shard again.
	for i := 0; i < 12; i++ {
		put(t, d, shardKey(i), fmt.Sprintf("dept%02d|tail%d", i%3, i))
	}
	at := d.Now()
	var want [3][]record.Version
	for dep := 0; dep < 3; dep++ {
		w, err := queryBySecondary(d, "dept", record.StringKey(fmt.Sprintf("dept%02d", dep)), at)
		if err != nil {
			t.Fatal(err)
		}
		want[dep] = w
	}
	d.Close()

	d2 := openDur(t, Config{Dir: dir, Secondaries: secs, CheckpointBytes: -1})
	if d2.Now() != at {
		t.Fatalf("recovered clock %v, want %v", d2.Now(), at)
	}
	for dep := 0; dep < 3; dep++ {
		got, err := queryBySecondary(d2, "dept", record.StringKey(fmt.Sprintf("dept%02d", dep)), at)
		if err != nil {
			t.Fatal(err)
		}
		assertSameVersions(t, fmt.Sprintf("dept%02d fetch", dep), got, want[dep])
	}
	if err := d2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableDirectoryLockedWhileOpen(t *testing.T) {
	dir := t.TempDir()
	d := openDur(t, Config{Dir: dir})
	put(t, d, "k", "v")
	// A second handle on the live directory would interleave log
	// segments with the first and lose acknowledged commits: refused.
	if _, err := Open(Config{Dir: dir}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second open = %v, want ErrLocked", err)
	}
	// Close releases the lock; the directory reopens normally.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := openDur(t, Config{Dir: dir})
	if _, ok, _ := d2.Get(record.StringKey("k")); !ok {
		t.Fatal("data lost across lock release")
	}
}

func TestDurableCreateSecondaryAfterOpenSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	// Background checkpointing off: the reseal must come from
	// CreateSecondary itself, not from a lucky background pass.
	d := openDur(t, Config{Dir: dir, CheckpointBytes: -1})
	if err := d.CreateSecondary("dept", deptExtract); err != nil {
		t.Fatal(err)
	}
	put(t, d, "emp1", "dept07|x")
	at := d.Now()
	d.Close()

	// The registration was sealed into the checkpoint: reopening
	// without the extractor is refused, with it the index works.
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("reopen without extractor should fail")
	}
	d2 := openDur(t, Config{Dir: dir, Secondaries: map[string]SecondaryExtract{"dept": deptExtract}})
	if n, err := d2.CountSecondary("dept", record.StringKey("dept07"), at); err != nil || n != 1 {
		t.Fatalf("recovered secondary count = %d, %v", n, err)
	}
}

func TestDurableShardMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	d := openDur(t, Config{Dir: dir, Shards: 4})
	put(t, d, "k", "v")
	d.Close()
	if _, err := Open(Config{Dir: dir, Shards: 8}); err == nil {
		t.Fatal("shard-count mismatch should be rejected")
	}
	// Unspecified shard count adopts the directory's.
	d2 := openDur(t, Config{Dir: dir})
	if d2.Shards() != 4 {
		t.Fatalf("adopted %d shards, want 4", d2.Shards())
	}
}

func TestCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	// Disable background checkpointing: this test drives it manually.
	d := openDur(t, Config{Dir: dir, Shards: 2, CheckpointBytes: -1})
	for i := 0; i < 100; i++ {
		put(t, d, fmt.Sprintf("key%03d", i%10), fmt.Sprintf("val%d", i))
	}
	segsBefore, err := wal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	bytesBefore := d.Stats().WAL.Bytes
	if bytesBefore == 0 || len(segsBefore) == 0 {
		t.Fatalf("expected a non-empty log: %d bytes, %d segments", bytesBefore, len(segsBefore))
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	segsAfter, err := wal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segsAfter) != 1 {
		t.Fatalf("%d segments after checkpoint, want only the live one", len(segsAfter))
	}
	info, found, err := wal.ReadCheckpointInfo(dir)
	if err != nil || !found {
		t.Fatalf("checkpoint info: found=%v err=%v", found, err)
	}
	if info.Shards != 2 || info.Clock != d.Now() {
		t.Fatalf("checkpoint info = %+v, clock want %v", info, d.Now())
	}
	// Recovery from checkpoint-only (empty tail) reproduces the state.
	want, _ := refScanAsOf(d, d.Now(), nil, record.InfiniteBound())
	wantNow := d.Now()
	d.Close()
	d2 := openDur(t, Config{Dir: dir, CheckpointBytes: -1})
	got, _ := d2.ReadAt(wantNow).Scan(nil, record.InfiniteBound())
	assertSameVersions(t, "post-truncation scan", got, want)
	if d2.Now() != wantNow {
		t.Fatalf("clock after checkpoint-only recovery = %v, want %v", d2.Now(), wantNow)
	}
}

func TestBackgroundCheckpointerTruncates(t *testing.T) {
	dir := t.TempDir()
	// A tiny threshold so a few commits trigger the background pass.
	d := openDur(t, Config{Dir: dir, CheckpointBytes: 256})
	for i := 0; i < 200; i++ {
		put(t, d, fmt.Sprintf("key%02d", i%10), fmt.Sprintf("val%d", i))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		info, found, err := wal.ReadCheckpointInfo(dir)
		if err != nil {
			t.Fatal(err)
		}
		// The open-time seal checkpoint has LSN 0; wait for a real one.
		if found && info.LSN > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background checkpointer never ran")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close after background checkpoints: %v", err)
	}
	// Everything still recovers.
	d2 := openDur(t, Config{Dir: dir, CheckpointBytes: -1})
	v, ok, _ := d2.Get(record.StringKey("key09"))
	if !ok || string(v.Value) != "val199" {
		t.Fatalf("recovered Get = %v %v", v, ok)
	}
	if err := d2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableGroupCommitAcknowledgesOnlyDurable(t *testing.T) {
	dir := t.TempDir()
	d := openDur(t, Config{Dir: dir})
	put(t, d, "a", "1")
	st := d.Stats()
	if st.WAL.Records == 0 || st.WAL.Syncs == 0 {
		t.Fatalf("commit did not reach the log: %+v", st.WAL)
	}
	// An aborted transaction must leave no trace in the log.
	tx := d.Begin()
	if err := tx.Put(record.StringKey("b"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().WAL.Records; got != st.WAL.Records {
		t.Errorf("abort appended to the log: %d -> %d records", st.WAL.Records, got)
	}
	wantNow := d.Now()
	d.Close()
	d2 := openDur(t, Config{Dir: dir})
	if _, ok, _ := d2.Get(record.StringKey("b")); ok {
		t.Error("aborted write recovered")
	}
	if d2.Now() != wantNow {
		t.Errorf("clock = %v, want %v", d2.Now(), wantNow)
	}
}

func TestDurableCheckpointOnInMemoryDBFails(t *testing.T) {
	d := open(t, Config{})
	if err := d.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on an in-memory database should fail")
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close on in-memory db: %v", err)
	}
	var errClosed = d.Close() // idempotent
	if errClosed != nil {
		t.Fatal(errClosed)
	}
}

func TestDurableConcurrentCommitsAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	// Keys spread across all 4 shards and a secondary index riding
	// along: a checkpoint racing the writers must stay boundary-exact
	// (a fuzzy dump would feed the shard-spanning secondary tree
	// out-of-order commit times on reload).
	secs := map[string]SecondaryExtract{"dept": deptExtract}
	d := openDur(t, Config{Dir: dir, Shards: 4, Secondaries: secs, CheckpointBytes: -1})
	const workers = 4
	const perWorker = 50
	errs := make(chan error, workers+1)
	done := make(chan struct{})
	go func() {
		// Checkpoint continuously while writers run: the "without
		// stopping writers" property under race.
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := d.Checkpoint(); err != nil {
				errs <- err
				return
			}
		}
	}()
	var committed [workers][]string
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// One byte per shard quarter: worker w's commits rotate
				// across every shard.
				k := fmt.Sprintf("%c-w%d-%03d", byte(i%4)*64+33, w, i)
				err := d.Update(func(tx *txn.Txn) error {
					return tx.Put(record.StringKey(k), []byte(fmt.Sprintf("dept%02d|w%d-%d", i%3, w, i)))
				})
				if err != nil {
					errs <- err
					return
				}
				committed[w] = append(committed[w], k)
			}
		}(w)
	}
	wg.Wait()
	close(done)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	wantNow := d.Now()
	wantDept0, err := d.CountSecondary("dept", record.StringKey("dept00"), wantNow)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()

	d2 := openDur(t, Config{Dir: dir, Secondaries: secs, CheckpointBytes: -1})
	if d2.Now() != wantNow {
		t.Fatalf("recovered clock %v, want %v", d2.Now(), wantNow)
	}
	for w := range committed {
		for _, k := range committed[w] {
			if _, ok, err := d2.Get(record.StringKey(k)); err != nil || !ok {
				t.Fatalf("acknowledged commit %s lost: ok=%v err=%v", k, ok, err)
			}
		}
	}
	if gotDept0, _ := d2.CountSecondary("dept", record.StringKey("dept00"), wantNow); gotDept0 != wantDept0 {
		t.Fatalf("recovered secondary count %d, want %d", gotDept0, wantDept0)
	}
	if err := d2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
