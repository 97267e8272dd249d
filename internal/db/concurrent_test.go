package db

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/record"
	"repro/internal/txn"
)

// committedOp is one durably committed write, logged by the writer that
// performed it with the commit timestamp the engine assigned. The log is
// the ground truth the sequential oracle replays: commit times are the
// serialization points, so the oracle's answers are the only admissible
// outcomes.
type committedOp struct {
	key       record.Key
	value     []byte
	tombstone bool
	time      record.Timestamp
}

// oracle is the same reference model as refdb in
// internal/core/model_test.go: full version histories per key, queried
// by time.
type oracle map[string][]committedOp

func buildOracle(log []committedOp) oracle {
	o := make(oracle)
	for _, op := range log {
		o[string(op.key)] = append(o[string(op.key)], op)
	}
	for k := range o {
		ops := o[k]
		sort.Slice(ops, func(i, j int) bool { return ops[i].time < ops[j].time })
		for i := 1; i < len(ops); i++ {
			if ops[i].time == ops[i-1].time {
				panic(fmt.Sprintf("duplicate commit time %d for key %x", ops[i].time, k))
			}
		}
	}
	return o
}

func (o oracle) getAsOf(k record.Key, at record.Timestamp) (committedOp, bool) {
	var out committedOp
	ok := false
	for _, op := range o[string(k)] {
		if op.time <= at {
			out = op
			ok = true
		}
	}
	if ok && out.tombstone {
		return committedOp{}, false
	}
	return out, ok
}

// TestConcurrentStress runs randomized readers, writers, snapshot
// scanners, and rollback readers against a sharded database under the
// race detector, then cross-checks the final state — histories, rollback
// reads, and snapshots — against the sequential oracle.
func TestConcurrentStress(t *testing.T) {
	const (
		shards       = 8
		writers      = 4
		readers      = 3
		opsPerWriter = 250
		nKeys        = 96
	)
	d, err := Open(Config{Shards: shards, LeafCapacity: 768, IndexCapacity: 768, MaxKeySize: 32})
	if err != nil {
		t.Fatal(err)
	}

	// Keys spread across shards (binary, uniform 16-bit prefixes).
	keys := make([]record.Key, nKeys)
	keyRng := rand.New(rand.NewSource(99))
	for i := range keys {
		keys[i] = record.Uint64Key(keyRng.Uint64())
	}

	var (
		logMu sync.Mutex
		log   []committedOp
	)
	appendLog := func(ops []committedOp) {
		logMu.Lock()
		log = append(log, ops...)
		logMu.Unlock()
	}

	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers+1)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*977 + 5))
			for i := 0; i < opsPerWriter; i++ {
				// Mostly single-key transactions; some two-key
				// transactions spanning shards, some deliberate aborts.
				nWrites := 1
				if rng.Intn(4) == 0 {
					nWrites = 2
				}
				abort := rng.Intn(10) == 0
				var tx *txn.Txn
				var staged []committedOp
				err := d.Update(func(t *txn.Txn) error {
					tx = t
					staged = staged[:0]
					for j := 0; j < nWrites; j++ {
						k := keys[rng.Intn(nKeys)]
						if rng.Intn(8) == 0 {
							if err := t.Delete(k); err != nil {
								return err
							}
							staged = append(staged, committedOp{key: k, tombstone: true})
						} else {
							val := []byte(fmt.Sprintf("w%d-%d-%d", w, i, j))
							if err := t.Put(k, val); err != nil {
								return err
							}
							staged = append(staged, committedOp{key: k, value: val})
						}
					}
					if abort {
						return errors.New("deliberate abort")
					}
					return nil
				})
				switch {
				case err == nil:
					ct := tx.CommitTime()
					if ct == 0 {
						errCh <- fmt.Errorf("writer %d: committed txn reports no commit time", w)
						return
					}
					// Two writes of one txn to the same key collapse to
					// the final one (the tree keeps one pending version
					// per key per txn).
					byKey := make(map[string]committedOp, len(staged))
					for _, op := range staged {
						op.time = ct
						byKey[string(op.key)] = op
					}
					final := make([]committedOp, 0, len(byKey))
					for _, op := range byKey {
						final = append(final, op)
					}
					appendLog(final)
				case errors.Is(err, txn.ErrLockConflict) || abort:
					// No-wait conflicts and deliberate aborts leave no trace.
				default:
					errCh <- fmt.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)*131 + 17))
			for i := 0; i < 120; i++ {
				switch rng.Intn(3) {
				case 0: // snapshot scan: sorted, consistent with its timestamp
					snap := d.ReadOnly()
					vs, err := snap.Scan(nil, record.InfiniteBound())
					if err != nil {
						errCh <- fmt.Errorf("reader %d scan: %v", r, err)
						return
					}
					for j, v := range vs {
						if v.Time > snap.Timestamp() {
							errCh <- fmt.Errorf("reader %d: snapshot@%v leaked version at %v", r, snap.Timestamp(), v.Time)
							return
						}
						if v.IsPending() || v.Tombstone {
							errCh <- fmt.Errorf("reader %d: snapshot surfaced pending/tombstone %v", r, v)
							return
						}
						if j > 0 && !vs[j-1].Key.Less(v.Key) {
							errCh <- fmt.Errorf("reader %d: snapshot out of order at %d", r, j)
							return
						}
					}
				case 1: // rollback point read at a past time
					at := record.Timestamp(rng.Intn(int(d.Now()) + 1))
					k := keys[rng.Intn(nKeys)]
					v, ok, err := d.GetAsOf(k, at)
					if err != nil {
						errCh <- fmt.Errorf("reader %d GetAsOf: %v", r, err)
						return
					}
					if ok && (v.Time > at || v.IsPending()) {
						errCh <- fmt.Errorf("reader %d: GetAsOf(%s,%d) returned version at %v", r, k, at, v.Time)
						return
					}
				default: // current read
					k := keys[rng.Intn(nKeys)]
					if v, ok, err := d.Get(k); err != nil {
						errCh <- fmt.Errorf("reader %d Get: %v", r, err)
						return
					} else if ok && v.IsPending() {
						errCh <- fmt.Errorf("reader %d: Get surfaced pending version", r)
						return
					}
				}
			}
		}(r)
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("invariants after stress: %v", err)
	}

	// --- Sequential oracle cross-check ---
	o := buildOracle(log)
	now := d.Now()

	// Histories must match the log exactly, per key.
	for _, k := range keys {
		h, err := d.History(k)
		if err != nil {
			t.Fatal(err)
		}
		want := o[string(k)]
		if len(h) != len(want) {
			t.Fatalf("History(%s): engine=%d oracle=%d versions", k, len(h), len(want))
		}
		for i := range h {
			if h[i].Time != want[i].time || h[i].Tombstone != want[i].tombstone ||
				!bytes.Equal(h[i].Value, want[i].value) {
				t.Fatalf("History(%s)[%d]: engine=%v oracle=%+v", k, i, h[i], want[i])
			}
		}
	}

	// Rollback reads at random past times.
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 500; trial++ {
		k := keys[rng.Intn(nKeys)]
		at := record.Timestamp(rng.Intn(int(now) + 2))
		gv, gok, err := d.GetAsOf(k, at)
		if err != nil {
			t.Fatal(err)
		}
		ov, ook := o.getAsOf(k, at)
		if gok != ook || (gok && (gv.Time != ov.time || !bytes.Equal(gv.Value, ov.value))) {
			t.Fatalf("GetAsOf(%s,%d): engine=%v,%v oracle=%+v,%v", k, at, gv, gok, ov, ook)
		}
	}

	// Snapshots at several times.
	for _, at := range []record.Timestamp{1, now / 4, now / 2, now} {
		got, err := d.ReadAt(at).Scan(nil, record.InfiniteBound())
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[string]committedOp)
		for ks := range o {
			if v, ok := o.getAsOf(record.Key(ks), at); ok {
				want[ks] = v
			}
		}
		if len(got) != len(want) {
			t.Fatalf("snapshot@%d: engine=%d keys oracle=%d", at, len(got), len(want))
		}
		for _, v := range got {
			w, ok := want[string(v.Key)]
			if !ok || w.time != v.Time || !bytes.Equal(w.value, v.Value) {
				t.Fatalf("snapshot@%d key %s: engine=%v oracle=%+v", at, v.Key, v, w)
			}
		}
	}
}

// TestConcurrentSecondaryMaintenance churns committed writes from several
// goroutines while others query a secondary index: index maintenance runs
// under the commit path's secondary latch and must stay internally
// consistent (every lookup resolves to a primary record carrying the
// secondary key).
func TestConcurrentSecondaryMaintenance(t *testing.T) {
	d, err := Open(Config{Shards: 4, MaxKeySize: 32})
	if err != nil {
		t.Fatal(err)
	}
	// Secondary key = first byte of the value.
	if err := d.CreateSecondary("tag", func(v []byte) record.Key {
		if len(v) == 0 {
			return nil
		}
		return record.Key{v[0]}
	}); err != nil {
		t.Fatal(err)
	}
	keys := make([]record.Key, 40)
	rng := rand.New(rand.NewSource(5))
	for i := range keys {
		keys[i] = record.Uint64Key(rng.Uint64())
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 71))
			for i := 0; i < 150; i++ {
				k := keys[rng.Intn(len(keys))]
				tag := byte('a' + rng.Intn(4))
				err := d.Update(func(tx *txn.Txn) error {
					return tx.Put(k, []byte{tag, byte('0' + byte(i%10))})
				})
				if err != nil && !errors.Is(err, txn.ErrLockConflict) {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r) + 301))
			for i := 0; i < 100; i++ {
				tag := record.Key{byte('a' + rng.Intn(4))}
				at := d.Now()
				vs, err := queryBySecondary(d, "tag", tag, at)
				if err != nil {
					errCh <- err
					return
				}
				for _, v := range vs {
					if len(v.Value) == 0 || v.Value[0] != tag[0] {
						errCh <- fmt.Errorf("secondary fetch for %s returned %v", tag, v)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
