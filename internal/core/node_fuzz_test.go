package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/record"
	"repro/internal/storage"
)

// FuzzDecodeNode feeds node bodies — real leaf and index pages, raw and
// mutated — to decodeNode: page slots and burn frames are untrusted
// bytes, so decoding must fail with record.ErrCorrupt rather than
// panic, must not balloon memory ahead of the failure, and a node it
// accepts must survive an encode/decode round trip unchanged.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, err := decodeNode(data, storage.Addr{Kind: storage.KindMagnetic, Off: 7})
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			if !errors.Is(err, record.ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		again, err := decodeNode(encodeNode(n), n.addr)
		if err != nil {
			t.Fatalf("re-encoded node does not decode: %v", err)
		}
		if !reflect.DeepEqual(n, again) {
			t.Fatalf("round trip changed the node:\n%+v\n%+v", n, again)
		}
	})
}
