package wal

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/record"
	"repro/internal/storage"
)

// PagedCheckpointFormatVersion identifies the checkpoint format: no
// version data — the database pages live in the device files
// (internal/pagestore), flushed before the checkpoint is installed —
// only a PagedMeta frame reattaching the engine to them at the
// page-consistent boundary the footer seals. Versions 1 and 2 (gob
// whole images) and 3 (logical version dumps) are rejected on read.
const PagedCheckpointFormatVersion = 4

const (
	checkpointName    = "CHECKPOINT"
	checkpointTmpName = "CHECKPOINT.tmp"
)

// CheckpointInfo is the content of a checkpoint: the header fields
// recovery validates the configuration against, plus the device/tree
// metadata it reattaches from.
type CheckpointInfo struct {
	// Shards is the key-range shard count the trees are partitioned by;
	// a durable database reopens with the same count.
	Shards int
	// Clock is the commit clock at the boundary: every commit at or
	// before it is contained in the checkpointed pages.
	Clock record.Timestamp
	// LSN is the rotation boundary: replay starts past it, and segments
	// wholly at or below it are deleted after the checkpoint lands.
	LSN uint64
	// Secondaries names the secondary indexes registered when the
	// checkpoint was taken, sorted; reopening requires an extractor per
	// name.
	Secondaries []string
	// Paged is the device/tree metadata. WriteCheckpoint requires it
	// and ReadCheckpointInfo always returns it for a found checkpoint.
	Paged *PagedMeta
}

// WriteCheckpoint durably writes a checkpoint — header, paged metadata,
// and a footer proving completeness, all CRC-framed — fsynced to a
// temporary file and atomically renamed into place. wrap is the
// fault-injection seam (may be nil).
func WriteCheckpoint(dir string, wrap func(storage.LogFile) storage.LogFile, info CheckpointInfo) (err error) {
	if info.Paged == nil {
		return fmt.Errorf("wal: checkpoint without paged metadata")
	}
	tmpPath := filepath.Join(dir, checkpointTmpName)
	raw, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create checkpoint: %w", err)
	}
	f := storage.LogFile(raw)
	if wrap != nil {
		f = wrap(f)
	}
	defer func() {
		if err != nil {
			_ = f.Close()
			_ = os.Remove(tmpPath)
		}
	}()

	e := record.NewEncoder(nil)
	e.Byte(frameCheckpointHeader)
	e.Uvarint(PagedCheckpointFormatVersion)
	e.Uvarint(uint64(info.Shards))
	e.Time(info.Clock)
	e.Uvarint(info.LSN)
	e.Uvarint(uint64(len(info.Secondaries)))
	for _, name := range info.Secondaries {
		e.Blob([]byte(name))
	}
	buf := appendFrame(nil, e.Bytes())
	buf = appendFrame(buf, encodePagedMeta(info.Paged))
	e = record.NewEncoder(nil)
	e.Byte(frameCheckpointFooter)
	e.Uvarint(info.LSN)
	buf = appendFrame(buf, e.Bytes())

	if _, err = f.Write(buf); err != nil {
		return fmt.Errorf("wal: write checkpoint: %w", err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("wal: sync checkpoint: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("wal: close checkpoint: %w", err)
	}
	if err = os.Rename(tmpPath, filepath.Join(dir, checkpointName)); err != nil {
		return fmt.Errorf("wal: install checkpoint: %w", err)
	}
	syncDir(dir)
	return nil
}

// ReadCheckpointInfo reads dir's checkpoint. found=false means no
// checkpoint exists (a fresh or pre-first-checkpoint directory). A
// checkpoint is only ever installed complete, so a torn or incomplete
// one is corruption, not a crash artifact: the error says so.
func ReadCheckpointInfo(dir string) (info CheckpointInfo, found bool, err error) {
	buf, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if os.IsNotExist(err) {
		return CheckpointInfo{}, false, nil
	}
	if err != nil {
		return CheckpointInfo{}, false, err
	}
	info, err = decodeCheckpoint(buf)
	if err != nil {
		return CheckpointInfo{}, false, err
	}
	return info, true, nil
}

// decodeCheckpoint parses and validates the bytes of a checkpoint file.
// Every count it acts on is checked against the shape the engine can
// reattach to: 1..record.MaxShards shards, one tree image per shard,
// and exactly the header's (sorted, distinct) secondary-index names.
func decodeCheckpoint(buf []byte) (info CheckpointInfo, err error) {
	sawHeader, sawFooter := false, false
	clean, err := parseFrames(buf, func(payload []byte) error {
		d := record.NewDecoder(payload)
		switch typ := d.Byte(); typ {
		case frameCheckpointHeader:
			if sawHeader {
				return fmt.Errorf("wal: duplicate checkpoint header")
			}
			sawHeader = true
			if version := d.Uvarint(); version != PagedCheckpointFormatVersion {
				return fmt.Errorf("wal: checkpoint format %d, want %d", version, PagedCheckpointFormatVersion)
			}
			shards := d.Uvarint()
			info.Clock = d.Time()
			info.LSN = d.Uvarint()
			n := d.Uvarint()
			if n > uint64(d.Remaining()) {
				return fmt.Errorf("wal: checkpoint header: %d secondaries", n)
			}
			for i := uint64(0); i < n && d.Err() == nil; i++ {
				name := string(d.Blob())
				if i > 0 && name <= info.Secondaries[i-1] {
					return fmt.Errorf("wal: checkpoint header: secondary names not sorted and distinct")
				}
				info.Secondaries = append(info.Secondaries, name)
			}
			if err := d.Err(); err != nil {
				return fmt.Errorf("wal: checkpoint header: %w", err)
			}
			if shards < 1 || shards > record.MaxShards {
				return fmt.Errorf("wal: checkpoint header: %d shards, want 1..%d", shards, record.MaxShards)
			}
			info.Shards = int(shards)
			return nil
		case framePagedMeta:
			if !sawHeader || sawFooter {
				return fmt.Errorf("wal: misplaced paged-meta frame")
			}
			if info.Paged != nil {
				return fmt.Errorf("wal: duplicate paged-meta frame")
			}
			m, merr := decodePagedMeta(d)
			if merr != nil {
				return merr
			}
			if len(m.Shards) != info.Shards {
				return fmt.Errorf("wal: paged meta has %d shard images, header says %d",
					len(m.Shards), info.Shards)
			}
			if len(m.Secondaries) != len(info.Secondaries) {
				return fmt.Errorf("wal: paged meta has %d secondary images, header names %d",
					len(m.Secondaries), len(info.Secondaries))
			}
			for _, name := range info.Secondaries {
				if _, ok := m.Secondaries[name]; !ok {
					return fmt.Errorf("wal: paged meta has no image for secondary %q", name)
				}
			}
			info.Paged = m
			return nil
		case frameCheckpointFooter:
			if !sawHeader || sawFooter {
				return fmt.Errorf("wal: misplaced checkpoint footer")
			}
			sawFooter = true
			if lsn := d.Uvarint(); d.Err() != nil || lsn != info.LSN {
				return fmt.Errorf("wal: checkpoint footer LSN %d, header says %d", lsn, info.LSN)
			}
			return nil
		default:
			return fmt.Errorf("wal: unknown checkpoint frame type %d", typ)
		}
	})
	if err != nil {
		return CheckpointInfo{}, err
	}
	if !clean || !sawHeader || !sawFooter {
		return CheckpointInfo{}, fmt.Errorf("wal: checkpoint incomplete or corrupt")
	}
	if info.Paged == nil {
		return CheckpointInfo{}, fmt.Errorf("wal: checkpoint missing its paged-meta frame")
	}
	return info, nil
}
