package db

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/record"
	"repro/internal/txn"
)

// shardOp is one step of a deterministic operation sequence applied
// identically to databases with different shard counts.
type shardOp struct {
	key    record.Key
	value  []byte
	delete bool
	abort  bool
}

// genShardOps produces a sequence whose keys spread across the whole
// 16-bit routing prefix space (binary keys) plus a clustered run that
// lands entirely in one shard (ASCII keys sharing a prefix) — routing
// must be correct in both regimes.
func genShardOps(seed int64, n int) []shardOp {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]record.Key, 0, 64)
	for i := 0; i < 48; i++ {
		keys = append(keys, record.Uint64Key(rng.Uint64()))
	}
	for i := 0; i < 16; i++ {
		keys = append(keys, record.StringKey(fmt.Sprintf("key%03d", i)))
	}
	ops := make([]shardOp, 0, n)
	for i := 0; i < n; i++ {
		op := shardOp{key: keys[rng.Intn(len(keys))]}
		switch {
		case rng.Intn(10) == 0:
			op.delete = true
		default:
			op.value = []byte(fmt.Sprintf("v%d-%d", i, rng.Intn(1000)))
		}
		op.abort = rng.Intn(12) == 0
		ops = append(ops, op)
	}
	return ops
}

func applyShardOps(t *testing.T, d *DB, ops []shardOp) {
	t.Helper()
	for i, op := range ops {
		err := d.Update(func(tx *txn.Txn) error {
			var err error
			if op.delete {
				err = tx.Delete(op.key)
			} else {
				err = tx.Put(op.key, op.value)
			}
			if err != nil {
				return err
			}
			if op.abort {
				return fmt.Errorf("deliberate abort")
			}
			return nil
		})
		if op.abort {
			if err == nil {
				t.Fatalf("op %d: abort did not propagate", i)
			}
		} else if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
}

func sameVersions(a, b []record.Version) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Key.Equal(b[i].Key) || a[i].Time != b[i].Time ||
			a[i].Tombstone != b[i].Tombstone || !bytes.Equal(a[i].Value, b[i].Value) {
			return fmt.Errorf("version %d: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}

// TestShardEquivalence is the sharding property test: a multi-shard
// database must answer every query byte-identically to a single-shard
// database given the same operation sequence — Get, GetAsOf, ScanAsOf,
// History, ScanRange, and Diff, over full and partial key ranges.
func TestShardEquivalence(t *testing.T) {
	for _, shards := range []int{2, 3, 8} {
		for _, seed := range []int64{1, 7} {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				ops := genShardOps(seed, 600)
				cfg := Config{LeafCapacity: 512, IndexCapacity: 512, MaxKeySize: 32}
				single, err := Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Shards = shards
				multi, err := Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				applyShardOps(t, single, ops)
				applyShardOps(t, multi, ops)

				if single.Now() != multi.Now() {
					t.Fatalf("clocks diverged: %v vs %v", single.Now(), multi.Now())
				}
				now := single.Now()
				if err := multi.CheckInvariants(); err != nil {
					t.Fatal(err)
				}

				keys := make(map[string]record.Key)
				for _, op := range ops {
					keys[string(op.key)] = op.key
				}
				rng := rand.New(rand.NewSource(seed * 31))
				for _, k := range keys {
					sv, sok, err1 := single.Get(k)
					mv, mok, err2 := multi.Get(k)
					if err1 != nil || err2 != nil {
						t.Fatal(err1, err2)
					}
					if sok != mok || (sok && (sv.Time != mv.Time || !bytes.Equal(sv.Value, mv.Value))) {
						t.Fatalf("Get(%s): single=%v,%v multi=%v,%v", k, sv, sok, mv, mok)
					}
					// Full history, byte for byte.
					sh, err1 := single.History(k)
					mh, err2 := multi.History(k)
					if err1 != nil || err2 != nil {
						t.Fatal(err1, err2)
					}
					if err := sameVersions(sh, mh); err != nil {
						t.Fatalf("History(%s): %v", k, err)
					}
					// Rollback reads at random times.
					for trial := 0; trial < 5; trial++ {
						at := record.Timestamp(rng.Intn(int(now) + 2))
						sv, sok, _ := single.GetAsOf(k, at)
						mv, mok, _ := multi.GetAsOf(k, at)
						if sok != mok || (sok && (sv.Time != mv.Time || !bytes.Equal(sv.Value, mv.Value))) {
							t.Fatalf("GetAsOf(%s,%d): single=%v,%v multi=%v,%v", k, at, sv, sok, mv, mok)
						}
					}
				}

				// Range queries over full and partial ranges, including
				// bounds that cut through shard boundaries.
				ranges := []struct {
					low  record.Key
					high record.Bound
				}{
					{nil, record.InfiniteBound()},
					{record.ShardBoundary(1, shards), record.InfiniteBound()},
					{nil, record.KeyBound(record.ShardBoundary(shards-1, shards))},
					{record.Uint64Key(1 << 62), record.KeyBound(record.Uint64Key(3 << 62))},
					{record.StringKey("key"), record.KeyBound(record.StringKey("kez"))},
				}
				for _, r := range ranges {
					for _, at := range []record.Timestamp{1, now / 2, now} {
						ss, err1 := single.ReadAt(at).Scan(r.low, r.high)
						ms, err2 := multi.ReadAt(at).Scan(r.low, r.high)
						if err1 != nil || err2 != nil {
							t.Fatal(err1, err2)
						}
						if err := sameVersions(ss, ms); err != nil {
							t.Fatalf("ScanAsOf(%d,[%s,%s)): %v", at, r.low, r.high, err)
						}
					}
					window := ScanOptions{From: now / 3, To: 2 * now / 3}
					sr, err1 := single.Cursor(r.low, r.high, window).Collect()
					mr, err2 := multi.Cursor(r.low, r.high, window).Collect()
					if err1 != nil || err2 != nil {
						t.Fatal(err1, err2)
					}
					if err := sameVersions(sr, mr); err != nil {
						t.Fatalf("ScanRange([%s,%s)): %v", r.low, r.high, err)
					}
					sd, err1 := queryDiff(single, r.low, r.high, now/3, now)
					md, err2 := queryDiff(multi, r.low, r.high, now/3, now)
					if err1 != nil || err2 != nil {
						t.Fatal(err1, err2)
					}
					if err := sameChanges(sd, md); err != nil {
						t.Fatalf("Diff([%s,%s)): %v", r.low, r.high, err)
					}
				}
			})
		}
	}
}

func sameChanges(a, b []core.Change) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Key.Equal(b[i].Key) || a[i].HasBefor != b[i].HasBefor || a[i].HasAfter != b[i].HasAfter {
			return fmt.Errorf("change %d: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].HasBefor && (a[i].Before.Time != b[i].Before.Time || !bytes.Equal(a[i].Before.Value, b[i].Before.Value)) {
			return fmt.Errorf("change %d before: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].HasAfter && (a[i].After.Time != b[i].After.Time || !bytes.Equal(a[i].After.Value, b[i].After.Value)) {
			return fmt.Errorf("change %d after: %+v vs %+v", i, a[i], b[i])
		}
	}
	return nil
}

// TestShardRoutingPlacement verifies every committed key physically lives
// in the shard tree its range says it should.
func TestShardRoutingPlacement(t *testing.T) {
	const shards = 8
	d, err := Open(Config{Shards: shards, LeafCapacity: 512, MaxKeySize: 32})
	if err != nil {
		t.Fatal(err)
	}
	applyShardOps(t, d, genShardOps(3, 400))
	seen := 0
	for i := 0; i < shards; i++ {
		low, high := record.ShardRange(i, shards)
		err := d.WithShardTree(i, func(tr *core.Tree) error {
			vs, err := tr.ScanAsOf(d.Now(), nil, record.InfiniteBound())
			if err != nil {
				return err
			}
			for _, v := range vs {
				if v.Key.Less(low) || high.CompareKey(v.Key) <= 0 {
					t.Fatalf("shard %d holds key %s outside [%s,%s)", i, v.Key, low, high)
				}
			}
			seen += len(vs)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	all, err := d.ReadAt(d.Now()).Scan(nil, record.InfiniteBound())
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(all) {
		t.Fatalf("shards hold %d live keys, full scan sees %d", seen, len(all))
	}
	// The binary keys must actually spread: with 48 uniform keys over 8
	// shards an empty shard is (7/8)^48 ~ 0.2%% per shard; all-in-one
	// would mean routing is broken.
	var shard0 core.Stats
	if err := d.WithShardTree(0, func(tr *core.Tree) error { shard0 = tr.Stats(); return nil }); err != nil {
		t.Fatal(err)
	}
	if shard0.Inserts == d.Stats().Tree.Inserts {
		t.Fatal("all inserts landed in shard 0: routing is not spreading keys")
	}
}

// TestLatchSamplingCoversBothModes regression-tests the latch-timing
// sampler against stride aliasing. Each operation here ticks the
// sampler a fixed number of times — two write-latch acquisitions (the
// pending insert and the commit stamp) and two read-latch ones (two
// point reads of other keys) — so a plain modulo-8 stride, a multiple
// of that period, lands every sample on the same acquisition site,
// leaving one mode's histograms permanently empty no matter how long
// the server runs. The hashed sampler must spread samples across both
// modes.
func TestLatchSamplingCoversBothModes(t *testing.T) {
	d, err := Open(Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 2000; i++ {
		if err := d.Update(func(tx *txn.Txn) error {
			for _, other := range []string{"alias%04d-a", "alias%04d-b"} {
				if _, _, err := tx.Get(record.Key(fmt.Sprintf(other, i))); err != nil {
					return err
				}
			}
			return tx.Put(record.Key(fmt.Sprintf("alias%04d", i)), []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	var reads, writes uint64
	for _, sh := range d.store.shards {
		reads += sh.waitR.Count()
		writes += sh.waitW.Count()
	}
	if reads == 0 || writes == 0 {
		t.Fatalf("latch sampler starved a mode: read samples=%d, write samples=%d", reads, writes)
	}
}
