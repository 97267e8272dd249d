package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/record"
	"repro/internal/txn"
)

func TestRun(t *testing.T) {
	if err := run("tsb-lastupdate", 600, 0.5, 1, true, 5); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadPolicy(t *testing.T) {
	if err := run("bogus", 100, 0.5, 1, false, 0); err == nil {
		t.Fatal("bogus policy should fail")
	}
}

func TestDumpWALDir(t *testing.T) {
	dir := t.TempDir()
	d, err := db.Open(db.Config{Dir: dir, Shards: 2, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		err := d.Update(func(tx *txn.Txn) error {
			return tx.Put(record.StringKey("key"), []byte("v"))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := dumpWALDir(&sb, dir); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"checkpoint: format v4 (paged)", "2 shard(s)", "lsn 5", "tail: clean", "5 commit record(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestDumpWALDirEmpty(t *testing.T) {
	var sb strings.Builder
	if err := dumpWALDir(&sb, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "checkpoint: none") || !strings.Contains(out, "no segments") {
		t.Errorf("empty dir dump:\n%s", out)
	}
}

func TestDumpPagedDir(t *testing.T) {
	dir := t.TempDir()
	d, err := db.Open(db.Config{Dir: dir, Shards: 2, CheckpointBytes: -1,
		LeafCapacity: 512, IndexCapacity: 1024, SectorSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		err := d.Update(func(tx *txn.Txn) error {
			return tx.Put(record.StringKey("key"+string(rune('a'+i%26))), []byte("0123456789abcdef0123456789"))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := dumpPagedDir(&sb, dir); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"format v4 (paged)", "page file", "crc ok", "burn file",
		"live payload", "dead payload, utilization", "0 bad"} {
		if !strings.Contains(out, want) {
			t.Errorf("paged dump missing %q:\n%s", want, out)
		}
	}
	// The WAL dump also understands a paged directory.
	sb.Reset()
	if err := dumpWALDir(&sb, dir); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "paged devices: epoch") {
		t.Errorf("waldir dump missing paged header:\n%s", sb.String())
	}
}

// TestDumpPagedDirRejectsLogical: a directory holding a format-3
// logical checkpoint (written by an older engine) is refused, not
// misread as an empty paged one.
func TestDumpPagedDirRejectsLogical(t *testing.T) {
	dir := t.TempDir()
	e := record.NewEncoder(nil)
	e.Byte(2) // checkpoint header frame
	e.Uvarint(3)
	e.Uvarint(1)
	e.Time(0)
	e.Uvarint(0)
	e.Uvarint(0)
	if err := os.WriteFile(filepath.Join(dir, "CHECKPOINT"), record.AppendFrame(nil, e.Bytes()), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := dumpPagedDir(&sb, dir); err == nil || !strings.Contains(err.Error(), "checkpoint format 3") {
		t.Fatalf("dumpPagedDir on logical dir: %v", err)
	}
}
