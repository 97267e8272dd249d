package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/record"
	"repro/internal/storage"
)

// FuzzDecodeNode feeds node bodies — real leaf and index pages, raw and
// mutated — to decodeNode: page slots and burn frames are untrusted
// bytes, so decoding must fail with record.ErrCorrupt rather than
// panic, must not balloon memory ahead of the failure (a huge count over
// a short body included), and a node it accepts must survive an
// encode/decode round trip unchanged, with its arithmetic size equal to
// the length of its encoding.
func FuzzDecodeNode(f *testing.F) {
	mag := storage.NewMagneticDisk(4096, storage.CostModel{})
	worm := storage.NewWORMDisk(storage.WORMConfig{SectorSize: 512})
	tree, err := New(mag, worm, testConfig(PolicyLastUpdate))
	if err != nil {
		f.Fatal(err)
	}
	for ts := 1; ts <= 200; ts++ {
		v := record.Version{
			Key:       record.StringKey(fmt.Sprintf("k%02d", ts%23)),
			Time:      record.Timestamp(ts),
			Value:     []byte(fmt.Sprintf("v%d", ts)),
			Tombstone: ts%17 == 0,
		}
		if err := tree.Insert(v); err != nil {
			f.Fatal(err)
		}
	}
	root, err := tree.readNode(tree.root)
	if err != nil {
		f.Fatal(err)
	}
	if root.leaf {
		f.Fatal("seed tree never split: no index page to seed with")
	}
	leaf, err := tree.readNode(root.entries[0].child)
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []*node{root, leaf} {
		page := encodeNode(n)
		f.Add(page)
		f.Add(page[:len(page)/2])
		flipped := append([]byte(nil), page...)
		flipped[len(flipped)/3] ^= 0xff
		f.Add(flipped)
		huge := append([]byte(nil), page...)
		huge[0] = 9 // unknown node kind
		f.Add(huge)
	}
	f.Add([]byte{})
	f.Add([]byte{nodeKindLeaf, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	// A count near 2^63 over a body of a few bytes, for both kinds.
	for _, kind := range []byte{nodeKindLeaf, nodeKindIndex} {
		f.Add([]byte{kind, 0, 1, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0, 0})
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, err := decodeNode(data, storage.Addr{Kind: storage.KindMagnetic, Off: 7})
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 32*uint64(len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			if !errors.Is(err, record.ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		page := encodeNode(n)
		if n.size() != len(page) {
			t.Fatalf("size %d, encoding %d bytes", n.size(), len(page))
		}
		again, err := decodeNode(page, n.addr)
		if err != nil {
			t.Fatalf("re-encoded node does not decode: %v", err)
		}
		if !reflect.DeepEqual(n, again) {
			t.Fatalf("round trip changed the node:\n%+v\n%+v", n, again)
		}
	})
}

// TestNodeSizeMatchesEncoding: the arithmetic node size equals the
// length of the node's encoding over random leaf and index nodes —
// empty, infinite and long bounds, tombstones, pending versions, and
// integers on both sides of every varint length step.
func TestNodeSizeMatchesEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// num draws an integer of a random varint length, often right at a
	// length step.
	num := func() uint64 {
		bits := uint(rng.Intn(65))
		v := uint64(1)<<bits - uint64(rng.Intn(2))
		if bits == 64 {
			v = math.MaxUint64 - uint64(rng.Intn(2))
		}
		if rng.Intn(4) == 0 {
			v = rng.Uint64() >> uint(rng.Intn(64))
		}
		return v
	}
	bytesOf := func() []byte {
		lens := []int{0, 1, 127, 128, 200, 16383, 16384}
		return make([]byte, lens[rng.Intn(len(lens))])
	}
	bound := func() record.Bound {
		if rng.Intn(3) == 0 {
			return record.InfiniteBound()
		}
		return record.KeyBound(bytesOf())
	}
	rect := func() record.Rect {
		return record.Rect{LowKey: bytesOf(), HighKey: bound(),
			Start: record.Timestamp(num()), End: record.Timestamp(num())}
	}
	for i := 0; i < 2000; i++ {
		n := &node{rect: rect(), leaf: i%2 == 0}
		for j := rng.Intn(6); j > 0; j-- {
			if n.leaf {
				v := record.Version{Key: bytesOf(), Time: record.Timestamp(num()), TxnID: num(),
					Value: bytesOf(), Tombstone: rng.Intn(3) == 0}
				if rng.Intn(3) == 0 {
					v.Time = record.TimePending
				}
				n.versions = append(n.versions, v)
			} else {
				n.entries = append(n.entries, entry{rect: rect(), child: storage.Addr{
					Kind: storage.DeviceKind(rng.Intn(3)), Off: num(), Len: uint32(num())}})
			}
		}
		if got, want := n.size(), len(encodeNode(n)); got != want {
			t.Fatalf("node %d (leaf=%v): size %d, encoding %d bytes", i, n.leaf, got, want)
		}
	}
}
