package wal

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pagestore"
	"repro/internal/record"
	"repro/internal/storage"
	"repro/internal/txn"
)

// samplePagedInfo is a checkpoint exercising every PagedMeta field:
// two shards, a secondary index, and writes pending at the boundary.
func samplePagedInfo() CheckpointInfo {
	meta := &PagedMeta{
		Epoch:      7,
		PageSize:   4096,
		SectorSize: 1024,
		Alloc:      pagestore.AllocState{Pages: 42, Free: []uint64{3, 9}},
		MagStats:   storage.MagneticStats{Reads: 10, Writes: 20, Allocs: 44, Frees: 2, PagesInUse: 40, HighWater: 41},
		Burned:     17,
		WormStats:  storage.WORMStats{SectorWrites: 17, SectorsBurned: 17, PayloadBytes: 9000, WastedBytes: 1234, Appends: 5},
		Shards: []core.TreeImage{
			{
				Root: storage.Addr{Kind: storage.KindMagnetic, Off: 12},
				Now:  99,
				Stats: core.Stats{
					Inserts: 1000, Commits: 900, LeafTimeSplits: 7,
					RedundantVersions: 3, HistoricalNodes: 4, CurrentNodes: 11, Height: 3,
				},
				Marked:       []uint64{5, 8},
				Policy:       core.PolicyLastUpdate,
				MaxKeySize:   64,
				MaxValueSize: 512,
				LeafCapacity: 4096, IndexCapacity: 4096,
			},
			{
				Root:       storage.Addr{Kind: storage.KindMagnetic, Off: 30},
				Now:        99,
				Policy:     core.PolicyKeyPref,
				MaxKeySize: 64, MaxValueSize: 512, LeafCapacity: 4096, IndexCapacity: 4096,
			},
		},
		Secondaries: map[string]core.TreeImage{
			"dept": {
				Root:       storage.Addr{Kind: storage.KindMagnetic, Off: 31},
				Now:        98,
				Policy:     core.PolicyLastUpdate,
				MaxKeySize: 129, MaxValueSize: 512, LeafCapacity: 4096, IndexCapacity: 4096,
			},
		},
		Pending: []txn.PendingWrite{
			{Key: record.StringKey("inflight-a"), TxnID: 12},
			{Key: record.StringKey("inflight-b"), TxnID: 13},
		},
	}
	return CheckpointInfo{
		Shards:      2,
		Clock:       99,
		LSN:         456,
		Secondaries: []string{"dept"},
		Paged:       meta,
	}
}

// TestPagedCheckpointRoundTrip: a v4 checkpoint's metadata survives
// write + read bit-exactly.
func TestPagedCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	info := samplePagedInfo()
	if err := WriteCheckpoint(dir, nil, info); err != nil {
		t.Fatal(err)
	}
	got, found, err := ReadCheckpointInfo(dir)
	if err != nil || !found {
		t.Fatalf("read: found=%v err=%v", found, err)
	}
	if got.Paged == nil {
		t.Fatal("paged meta missing")
	}
	if got.Shards != 2 || got.Clock != 99 || got.LSN != 456 {
		t.Fatalf("header: %+v", got)
	}
	if !reflect.DeepEqual(got.Paged, info.Paged) {
		t.Fatalf("paged meta round trip:\n got %+v\nwant %+v", got.Paged, info.Paged)
	}
}

// TestPagedMetaLengthIgnoresDeviceTime: the device accounting's SimTime
// is measured wall time on file devices, so it must not move the meta's
// length — crash sweeps measure a checkpoint's byte stream on one run and
// tear it at those offsets on another.
func TestPagedMetaLengthIgnoresDeviceTime(t *testing.T) {
	want := -1
	for _, d := range []time.Duration{0, 1, 127, 128, time.Millisecond, time.Hour, math.MaxInt64} {
		m := samplePagedInfo().Paged
		m.MagStats.SimTime, m.WormStats.SimTime = d, d/3
		buf := encodePagedMeta(m)
		if want < 0 {
			want = len(buf)
		}
		if len(buf) != want {
			t.Fatalf("SimTime %v: meta is %d bytes, want %d", d, len(buf), want)
		}
		got, err := decodePagedMeta(record.NewDecoder(buf[1:]))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("SimTime %v: round trip:\n got %+v\nwant %+v", d, got, m)
		}
	}
}

// TestPagedCheckpointReadsMinimalDurations reopens a checkpoint as
// earlier builds wrote it, with the durations as minimal varints rather
// than padded: the reader is unchanged, so such a directory still opens
// with the same metadata.
func TestPagedCheckpointReadsMinimalDurations(t *testing.T) {
	info := samplePagedInfo()
	info.Paged.MagStats.SimTime = 3*time.Second + 7
	info.Paged.WormStats.SimTime = 5 * time.Millisecond
	meta := encodePagedMeta(info.Paged)
	for _, d := range []time.Duration{info.Paged.MagStats.SimTime, info.Paged.WormStats.SimTime} {
		padded := record.NewEncoder(nil)
		encodeDuration(padded, int64(d))
		minimal := binary.AppendUvarint(nil, uint64(d))
		if bytes.Count(meta, padded.Bytes()) != 1 {
			t.Fatalf("padded duration %v not found once in the meta", d)
		}
		meta = bytes.Replace(meta, padded.Bytes(), minimal, 1)
	}
	dir := t.TempDir()
	footer := record.NewEncoder(nil)
	footer.Byte(frameCheckpointFooter)
	footer.Uvarint(info.LSN)
	raw := appendFrame(headerFrame(PagedCheckpointFormatVersion, uint64(info.Shards), info.LSN, info.Secondaries...), meta)
	installRaw(t, dir, appendFrame(raw, footer.Bytes()))
	got, found, err := ReadCheckpointInfo(dir)
	if err != nil || !found {
		t.Fatalf("read: found=%v err=%v", found, err)
	}
	if !reflect.DeepEqual(got.Paged, info.Paged) {
		t.Fatalf("minimal-duration meta:\n got %+v\nwant %+v", got.Paged, info.Paged)
	}
}
