package db

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/record"
	"repro/internal/wal"
)

func deptExtract(v []byte) record.Key {
	i := bytes.IndexByte(v, '|')
	if i < 0 {
		return nil
	}
	return record.Key(v[:i])
}

// TestCheckpointRoundTrip: a checkpointed directory with a secondary
// index, a small buffer pool (so pages are evicted and re-read) and a
// WAL tail reopens to the same clock, histories and secondary lookups,
// and keeps committing and checkpointing.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	secs := map[string]SecondaryExtract{"dept": deptExtract}
	d := openDur(t, Config{Dir: dir, BufferPages: 16, CheckpointBytes: -1, Secondaries: secs})
	for i := 0; i < 400; i++ {
		put(t, d, fmt.Sprintf("emp%03d", i%50), fmt.Sprintf("dept%02d|rev%d", i%7, i))
		if i == 300 {
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	wantNow := d.Now()
	wantHist, _ := d.History(record.StringKey("emp007"))
	wantCount, _ := d.CountSecondary("dept", record.StringKey("dept03"), wantNow)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openDur(t, Config{Dir: dir, BufferPages: 16, CheckpointBytes: -1, Secondaries: secs})
	if d2.Now() != wantNow {
		t.Errorf("clock = %v, want %v", d2.Now(), wantNow)
	}
	if err := d2.CheckInvariants(); err != nil {
		t.Fatalf("invariants after reopen: %v", err)
	}
	gotHist, err := d2.History(record.StringKey("emp007"))
	if err != nil {
		t.Fatal(err)
	}
	assertSameVersions(t, "history", gotHist, wantHist)
	gotCount, _ := d2.CountSecondary("dept", record.StringKey("dept03"), wantNow)
	if gotCount != wantCount {
		t.Errorf("secondary count = %d, want %d", gotCount, wantCount)
	}
	// The reopened database keeps working: writes, commits, secondary
	// maintenance, and further checkpoints.
	put(t, d2, "emp000", "dept99|after-restart")
	v, ok, _ := d2.Get(record.StringKey("emp000"))
	if !ok || string(v.Value) != "dept99|after-restart" {
		t.Fatalf("write after reopen = %v, %v", v, ok)
	}
	if n, _ := d2.CountSecondary("dept", record.StringKey("dept99"), d2.Now()); n != 1 {
		t.Errorf("secondary after reopen write = %d, want 1", n)
	}
	if err := d2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadValidatesInputs: reopening a directory checks the supplied
// extractors against the checkpoint, and checkpoint bytes that are
// garbage or name an impossible shape are errors, never a panic.
func TestLoadValidatesInputs(t *testing.T) {
	dir := t.TempDir()
	none := func([]byte) record.Key { return nil }
	d := openDur(t, Config{Dir: dir, Secondaries: map[string]SecondaryExtract{"a": none}})
	put(t, d, "k", "v")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Missing extractor.
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Error("missing extractor should fail")
	}
	// Wrong extractor name.
	if _, err := Open(Config{Dir: dir, Secondaries: map[string]SecondaryExtract{"b": none}}); err == nil {
		t.Error("wrong extractor name should fail")
	}

	// Garbage checkpoint.
	garbage := t.TempDir()
	if err := os.WriteFile(filepath.Join(garbage, "CHECKPOINT"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: garbage}); err == nil {
		t.Error("garbage checkpoint should fail")
	}

	// A CRC-valid checkpoint claiming zero shards (with a zero-image
	// meta) over real device files once made Open index an empty tree
	// slice and panic.
	zero := t.TempDir()
	openDur(t, Config{Dir: zero}).Close()
	info, _, err := wal.ReadCheckpointInfo(zero)
	if err != nil {
		t.Fatal(err)
	}
	info.Shards, info.Paged.Shards, info.Paged.GroupLSNs = 0, nil, nil
	if err := wal.WriteCheckpoint(zero, nil, info); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: zero}); err == nil || !strings.Contains(err.Error(), "0 shards") {
		t.Errorf("zero-shard checkpoint: err = %v", err)
	}
}
