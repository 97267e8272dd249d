package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/record"
	"repro/internal/storage"
)

// minimalInfo is the smallest valid checkpoint for `shards` shards and
// the given (sorted) secondary indexes: default tree images, no pages.
func minimalInfo(shards int, lsn uint64, secondaries ...string) CheckpointInfo {
	m := &PagedMeta{
		Epoch: 1, PageSize: 4096, SectorSize: 1024,
		Shards:      make([]core.TreeImage, shards),
		Secondaries: make(map[string]core.TreeImage),
		GroupLSNs:   make([]uint64, shards),
		SecLSN:      lsn,
	}
	for _, name := range secondaries {
		m.Secondaries[name] = core.TreeImage{}
	}
	return CheckpointInfo{Shards: shards, Clock: 3, LSN: lsn, Secondaries: secondaries, Paged: m}
}

// headerFrame hand-frames a checkpoint header of any format version.
func headerFrame(version, shards uint64, lsn uint64, secondaries ...string) []byte {
	e := record.NewEncoder(nil)
	e.Byte(frameCheckpointHeader)
	e.Uvarint(version)
	e.Uvarint(shards)
	e.Time(3)
	e.Uvarint(lsn)
	e.Uvarint(uint64(len(secondaries)))
	for _, name := range secondaries {
		e.Blob([]byte(name))
	}
	return appendFrame(nil, e.Bytes())
}

// assemble appends m's meta frame (if any) and a footer sealing
// footerLSN to a hand-framed header.
func assemble(header []byte, m *PagedMeta, footerLSN uint64) []byte {
	buf := header
	if m != nil {
		buf = appendFrame(buf, encodePagedMeta(m))
	}
	e := record.NewEncoder(nil)
	e.Byte(frameCheckpointFooter)
	e.Uvarint(footerLSN)
	return appendFrame(buf, e.Bytes())
}

// logicalCheckpoint hand-frames a format-3 (logical dump) checkpoint:
// header, one version chunk (the retired frame type 3), footer.
func logicalCheckpoint() []byte {
	e := record.NewEncoder(nil)
	e.Byte(3)
	e.Uvarint(0)
	e.Versions([]record.Version{{Key: record.StringKey("k"), Time: 1, Value: []byte("v")}})
	return assemble(appendFrame(headerFrame(3, 1, 7), e.Bytes()), nil, 7)
}

// zeroShardCheckpoint is CRC-valid throughout, but its header claims no
// shards and its meta carries no shard images.
func zeroShardCheckpoint() []byte {
	return assemble(headerFrame(PagedCheckpointFormatVersion, 0, 7), minimalInfo(0, 7).Paged, 7)
}

// installRaw writes raw bytes as dir's installed checkpoint.
func installRaw(t *testing.T, dir string, buf []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, checkpointName), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := minimalInfo(3, 41, "a-index", "dept")
	if err := WriteCheckpoint(dir, nil, want); err != nil {
		t.Fatal(err)
	}
	got, found, err := ReadCheckpointInfo(dir)
	if err != nil || !found {
		t.Fatalf("read: found=%v err=%v", found, err)
	}
	if got.Shards != 3 || got.Clock != 3 || got.LSN != 41 ||
		strings.Join(got.Secondaries, ",") != "a-index,dept" || len(got.Paged.Shards) != 3 {
		t.Fatalf("info = %+v", got)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointTmpName)); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind after install: %v", err)
	}
	// A checkpoint without paged metadata is refused before any write.
	if err := WriteCheckpoint(t.TempDir(), nil, CheckpointInfo{Shards: 1}); err == nil {
		t.Fatal("checkpoint without paged metadata accepted")
	}
}

func TestCheckpointAbsentAndTorn(t *testing.T) {
	dir := t.TempDir()
	if _, found, err := ReadCheckpointInfo(dir); err != nil || found {
		t.Fatalf("empty dir: found=%v err=%v", found, err)
	}

	// A torn checkpoint write never installs, wherever it tears — in
	// the header, the meta frame, or the footer: the temp file is
	// removed and readers see no checkpoint.
	if err := WriteCheckpoint(dir, nil, minimalInfo(1, 7)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, checkpointName)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	size := int64(len(buf))
	for _, tear := range []int64{0, 1, 9, size / 2, size - 1} {
		plan := storage.NewTearPlan(tear)
		err := WriteCheckpoint(dir,
			func(f storage.LogFile) storage.LogFile { return storage.NewTornLogFile(f, plan) },
			minimalInfo(1, 7))
		if !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("tear=%d: torn checkpoint error = %v", tear, err)
		}
		if _, found, err := ReadCheckpointInfo(dir); err != nil || found {
			t.Fatalf("tear=%d: after torn write: found=%v err=%v", tear, found, err)
		}
		for _, name := range []string{checkpointName, checkpointTmpName} {
			if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
				t.Fatalf("tear=%d: %s should not exist: %v", tear, name, err)
			}
		}
	}

	// An installed checkpoint that is then truncated or bit-flipped is
	// a hard error, never a silently shorter checkpoint.
	for cut := 0; cut < len(buf); cut++ {
		installRaw(t, dir, buf[:cut])
		if _, _, err := ReadCheckpointInfo(dir); err == nil {
			t.Fatalf("checkpoint truncated to %d of %d bytes accepted", cut, len(buf))
		}
	}
	for i := range buf {
		flipped := append([]byte(nil), buf...)
		flipped[i] ^= 0x10
		installRaw(t, dir, flipped)
		if _, _, err := ReadCheckpointInfo(dir); err == nil {
			t.Fatalf("checkpoint with byte %d flipped accepted", i)
		}
	}
}

// TestCheckpointFooterLSNMismatch: a footer sealing a different LSN than
// the header claims is rejected, though every frame's CRC is valid.
func TestCheckpointFooterLSNMismatch(t *testing.T) {
	dir := t.TempDir()
	installRaw(t, dir, assemble(headerFrame(PagedCheckpointFormatVersion, 1, 7), minimalInfo(1, 7).Paged, 8))
	if _, _, err := ReadCheckpointInfo(dir); err == nil || !strings.Contains(err.Error(), "footer LSN") {
		t.Fatalf("footer LSN mismatch: err = %v", err)
	}
}

// TestCheckpointRejectsLogicalFormat: a format-3 logical dump left by an
// older engine is refused by version, before any of its chunks is read.
func TestCheckpointRejectsLogicalFormat(t *testing.T) {
	dir := t.TempDir()
	installRaw(t, dir, logicalCheckpoint())
	if _, _, err := ReadCheckpointInfo(dir); err == nil || !strings.Contains(err.Error(), "checkpoint format 3") {
		t.Fatalf("logical checkpoint: err = %v", err)
	}
}

// TestCheckpointRejectsBadShape: shard counts outside 1..MaxShards, and
// meta images disagreeing with the header, are errors — recovery indexes
// trees and extractors by these counts.
func TestCheckpointRejectsBadShape(t *testing.T) {
	const v4 = PagedCheckpointFormatVersion
	cases := map[string][]byte{
		"zero shards":              zeroShardCheckpoint(),
		"too many shards":          assemble(headerFrame(v4, record.MaxShards+1, 7), minimalInfo(1, 7).Paged, 7),
		"meta shard count":         assemble(headerFrame(v4, 2, 7), minimalInfo(1, 7).Paged, 7),
		"meta secondary missing":   assemble(headerFrame(v4, 1, 7, "dept"), minimalInfo(1, 7, "other").Paged, 7),
		"secondary names unsorted": assemble(headerFrame(v4, 1, 7, "b", "a"), minimalInfo(1, 7, "a", "b").Paged, 7),
		"meta missing":             assemble(headerFrame(v4, 1, 7), nil, 7),
	}
	for name, buf := range cases {
		dir := t.TempDir()
		installRaw(t, dir, buf)
		if _, _, err := ReadCheckpointInfo(dir); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzReadCheckpoint is the robustness target of the checkpoint decoder:
// whatever bytes sit in a CHECKPOINT file, decoding returns an error or
// an info recovery can reattach to — 1..MaxShards shards, one tree
// image per shard, an image per named secondary index. It never panics,
// and never allocates more than a small multiple of the input.
func FuzzReadCheckpoint(f *testing.F) {
	dir := f.TempDir()
	if err := WriteCheckpoint(dir, nil, samplePagedInfo()); err != nil {
		f.Fatal(err)
	}
	real, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(logicalCheckpoint())
	f.Add(zeroShardCheckpoint())
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		// Mutations rarely survive the frame CRCs; re-seal them so the
		// payload decoders see the mutated bytes too.
		checkDecode(t, resealFrames(data))
	})
}

// checkDecode decodes data as checkpoint file bytes and fails on an
// oversized allocation or on an info recovery could not reattach to.
func checkDecode(t *testing.T, data []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	info, err := decodeCheckpoint(data)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(data))+1<<20 {
		t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
	}
	if err != nil {
		return
	}
	if info.Shards < 1 || info.Shards > record.MaxShards || info.Paged == nil ||
		len(info.Paged.Shards) != info.Shards || len(info.Paged.Secondaries) != len(info.Secondaries) {
		t.Fatalf("decoded an unusable checkpoint: %+v", info)
	}
	for _, name := range info.Secondaries {
		if _, ok := info.Paged.Secondaries[name]; !ok {
			t.Fatalf("secondary %q has no image", name)
		}
	}
}

// resealFrames returns a copy of data with the CRC of every frame its
// length headers delimit recomputed.
func resealFrames(data []byte) []byte {
	out := append([]byte(nil), data...)
	for off := 0; off+frameHeaderSize <= len(out); {
		n := int(binary.LittleEndian.Uint32(out[off:]))
		end := off + frameHeaderSize + n
		if n == 0 || end > len(out) {
			break
		}
		binary.LittleEndian.PutUint32(out[off+4:], crc32.Checksum(out[off+frameHeaderSize:end], castagnoli))
		off = end
	}
	return out
}
