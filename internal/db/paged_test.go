package db

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/record"
	"repro/internal/txn"
)

// pagedConfig is the base configuration of the paged-mode tests: small
// nodes so splits and WORM migrations actually happen.
func pagedConfig(dir string) Config {
	return Config{
		Dir: dir, Shards: 2, CheckpointBytes: -1,
		LeafCapacity: 512, IndexCapacity: 1024, SectorSize: 256,
	}
}

func mustPut(t *testing.T, d *DB, k, v string) {
	t.Helper()
	if err := d.Update(func(tx *txn.Txn) error {
		return tx.Put(record.StringKey(k), []byte(v))
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPagedOpenReopen is the basic paged-mode round trip: write,
// checkpoint, write more (so the WAL tail matters), close, reopen, and
// demand every version — current, historical, scanned — plus the device
// accounting to survive.
func TestPagedOpenReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(pagedConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		mustPut(t, d, fmt.Sprintf("key%03d", i%50), fmt.Sprintf("val%04d", i))
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 200; i < 260; i++ {
		mustPut(t, d, fmt.Sprintf("key%03d", i%50), fmt.Sprintf("val%04d", i))
	}
	wantAll, err := refScanRange(d, nil, record.InfiniteBound(), 1, record.TimeInfinity)
	if err != nil {
		t.Fatal(err)
	}
	wantNow := d.Now()
	wantDev := d.Stats().Device
	if !wantDev.Paged {
		t.Fatal("Device.Paged = false on a paged database")
	}
	if wantDev.SpaceM == 0 || wantDev.SpaceO == 0 {
		t.Fatalf("device accounting empty: %+v", wantDev)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(pagedConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Now() != wantNow {
		t.Fatalf("reopened clock %v, want %v", re.Now(), wantNow)
	}
	gotAll, err := re.Cursor(nil, record.InfiniteBound(), ScanOptions{From: 1, To: record.TimeInfinity}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	assertSameVersions(t, "paged reopen full scan", gotAll, wantAll)
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Accounting is cumulative across the reopen.
	reDev := re.Stats().Device
	if reDev.SpaceO < wantDev.SpaceO {
		t.Fatalf("SpaceO shrank across reopen: %d -> %d", wantDev.SpaceO, reDev.SpaceO)
	}
	// And the reopened database keeps working.
	mustPut(t, re, "post", "reopen")
	if v, ok, err := re.Get(record.StringKey("post")); err != nil || !ok || string(v.Value) != "reopen" {
		t.Fatalf("write after reopen: %v %v %q", ok, err, v.Value)
	}
}

// TestPagedCheckpointIncremental is the acceptance criterion: after a
// large database is checkpointed, a checkpoint following a small number
// of updates flushes O(dirty) pages, not O(database).
func TestPagedCheckpointIncremental(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(pagedConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 2000; i++ {
		mustPut(t, d, fmt.Sprintf("key%05d", i), strings.Repeat("x", 40))
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	base := d.Stats().Buffer.FlushedPages
	totalPages := d.Stats().Magnetic.PagesInUse

	// Touch three keys, checkpoint again.
	for i := 0; i < 3; i++ {
		mustPut(t, d, fmt.Sprintf("key%05d", i*700), "dirty")
	}
	if dirty := d.Stats().Device.DirtyPages; dirty == 0 {
		t.Fatal("no dirty pages after updates")
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	flushed := int(d.Stats().Buffer.FlushedPages - base)
	if flushed == 0 {
		t.Fatal("incremental checkpoint flushed nothing")
	}
	if flushed*10 > totalPages {
		t.Fatalf("incremental checkpoint flushed %d of %d pages: not O(dirty)", flushed, totalPages)
	}
	if dirty := d.Stats().Device.DirtyPages; dirty != 0 {
		t.Fatalf("%d dirty pages survived the checkpoint", dirty)
	}
}

// TestPagedModeMismatch: there is one durable format. The deprecated
// PagedDevices flag selects nothing — a directory created with it
// reopens without it and vice versa — and a directory holding a
// format-3 logical checkpoint from an older engine is refused by
// version, never misread.
func TestPagedModeMismatch(t *testing.T) {
	dir := t.TempDir()
	cfg := pagedConfig(dir)
	cfg.PagedDevices = true
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, d, "a", "1")
	d.Close()
	d, err = Open(pagedConfig(dir))
	if err != nil {
		t.Fatalf("reopen without PagedDevices: %v", err)
	}
	mustPut(t, d, "a", "2")
	d.Close()
	d, err = Open(cfg)
	if err != nil {
		t.Fatalf("reopen with PagedDevices: %v", err)
	}
	if v, ok, _ := d.Get(record.StringKey("a")); !ok || string(v.Value) != "2" {
		t.Fatalf("after reopens: a = %q, %v", v.Value, ok)
	}
	d.Close()

	logical := t.TempDir()
	e := record.NewEncoder(nil)
	e.Byte(2) // checkpoint header frame
	e.Uvarint(3)
	e.Uvarint(2)
	e.Time(0)
	e.Uvarint(0)
	e.Uvarint(0)
	if err := os.WriteFile(filepath.Join(logical, "CHECKPOINT"), record.AppendFrame(nil, e.Bytes()), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(pagedConfig(logical)); err == nil || !strings.Contains(err.Error(), "checkpoint format 3") {
		t.Fatalf("open of a logical directory: err = %v", err)
	}
}

// TestPagedConfigValidation: a durable database needs the buffer pool,
// and the deprecated PagedDevices still refuses to run without Dir.
func TestPagedConfigValidation(t *testing.T) {
	if _, err := Open(Config{PagedDevices: true}); err == nil {
		t.Fatal("PagedDevices without Dir accepted")
	}
	if _, err := Open(Config{Dir: t.TempDir(), BufferPages: NoCachePages}); err == nil {
		t.Fatal("Dir with NoCachePages accepted")
	}
}

// TestPagedSecondariesReopen: secondary indexes rebuilt from tree
// images answer the same lookups after a reopen, and reopening demands
// the extractor set exactly.
func TestPagedSecondariesReopen(t *testing.T) {
	dir := t.TempDir()
	secs := map[string]SecondaryExtract{"dept": deptExtract}
	cfg := pagedConfig(dir)
	cfg.Secondaries = secs
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		mustPut(t, d, fmt.Sprintf("emp%02d", i%20), fmt.Sprintf("dept%02d|rev%d", i%3, i))
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 60; i < 80; i++ {
		mustPut(t, d, fmt.Sprintf("emp%02d", i%20), fmt.Sprintf("dept%02d|rev%d", i%3, i))
	}
	now := d.Now()
	want := map[string][]string{}
	for dept := 0; dept < 3; dept++ {
		skey := record.Key(fmt.Sprintf("dept%02d", dept))
		pks, err := d.LookupSecondary("dept", skey, now)
		if err != nil {
			t.Fatal(err)
		}
		for _, pk := range pks {
			want[string(skey)] = append(want[string(skey)], string(pk))
		}
	}
	d.Close()

	// Missing extractor: refused.
	bad := pagedConfig(dir)
	if _, err := Open(bad); err == nil {
		t.Fatal("reopen without extractors accepted")
	}
	cfg2 := pagedConfig(dir)
	cfg2.Secondaries = secs
	re, err := Open(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for skey, wantPKs := range want {
		pks, err := re.LookupSecondary("dept", record.Key(skey), now)
		if err != nil {
			t.Fatal(err)
		}
		if len(pks) != len(wantPKs) {
			t.Fatalf("%s: %d keys after reopen, want %d", skey, len(pks), len(wantPKs))
		}
		for i := range pks {
			if string(pks[i]) != wantPKs[i] {
				t.Fatalf("%s key %d = %s, want %s", skey, i, pks[i], wantPKs[i])
			}
		}
	}
}

// TestPagedPendingErasedOnRecovery: a transaction in flight across a
// checkpoint leaves its pending version in the flushed pages; recovery
// must erase it — invisible to every read, and no obstacle to a new
// transaction (with a recycled txn id) writing the same key.
func TestPagedPendingErasedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(pagedConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, d, "stable", "committed")
	tx := d.Begin()
	if err := tx.Put(record.StringKey("inflight"), []byte("uncommitted")); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Power loss with tx still open: its pending version is inside the
	// checkpointed pages.
	crash(d)

	re, err := Open(pagedConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok, err := re.Get(record.StringKey("inflight")); err != nil || ok {
		t.Fatalf("uncommitted key visible after recovery: ok=%v err=%v", ok, err)
	}
	hist, err := re.History(record.StringKey("inflight"))
	if err == nil && len(hist) != 0 {
		t.Fatalf("uncommitted key has %d recovered versions", len(hist))
	}
	// A fresh transaction — txn ids restart from 1 — writes the key.
	mustPut(t, re, "inflight", "second-life")
	if v, ok, _ := re.Get(record.StringKey("inflight")); !ok || string(v.Value) != "second-life" {
		t.Fatalf("rewrite after recovery: ok=%v val=%q", ok, v.Value)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPagedDoubleOpenLocked: the directory lock applies to paged
// directories too.
func TestPagedDoubleOpenLocked(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(pagedConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := Open(pagedConfig(dir)); !errors.Is(err, ErrLocked) {
		t.Fatalf("second open: err = %v, want ErrLocked", err)
	}
}

// TestPagedDeviceFilesExist: the directory actually contains the device
// files, and they dwarf the checkpoint metadata (the point of paging:
// the checkpoint no longer carries the database).
func TestPagedDeviceFilesExist(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(pagedConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 500; i++ {
		mustPut(t, d, fmt.Sprintf("key%04d", i), strings.Repeat("v", 60))
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pageInfo, err := os.Stat(filepath.Join(dir, "pages.dev"))
	if err != nil {
		t.Fatal(err)
	}
	cpInfo, err := os.Stat(filepath.Join(dir, "CHECKPOINT"))
	if err != nil {
		t.Fatal(err)
	}
	if pageInfo.Size() < 10*cpInfo.Size() {
		t.Fatalf("pages.dev %d bytes vs CHECKPOINT %d bytes: checkpoint still carries the database?",
			pageInfo.Size(), cpInfo.Size())
	}
	if _, err := os.Stat(filepath.Join(dir, "pages.dev.journal")); !os.IsNotExist(err) {
		t.Fatalf("rollback journal survived a completed checkpoint: %v", err)
	}
}
