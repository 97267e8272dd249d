package buffer_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/buffer"
	"repro/internal/pagestore"
	"repro/internal/storage"
)

// TestReadBuffersBelongToCaller checks the ownership contract of
// storage.PageStore.Read and storage.WORMDevice.ReadAt on every
// implementation: the returned slice is the caller's, so scribbling on
// it must not change what the next read returns. The TSB-tree decodes
// nodes in place on the strength of this — its keys and values point
// into the buffer a read returned.
func TestReadBuffersBelongToCaller(t *testing.T) {
	payload := bytes.Repeat([]byte("tsb-page"), 20)
	// page writes payload to a fresh page of dev and returns a reader of
	// it through reader.
	page := func(t *testing.T, dev, reader storage.PageStore) func() ([]byte, error) {
		p, err := dev.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.Write(p, payload); err != nil {
			t.Fatal(err)
		}
		return func() ([]byte, error) { return reader.Read(p) }
	}
	// run burns payload to dev and returns a reader of the run.
	run := func(t *testing.T, dev storage.WORMDevice) func() ([]byte, error) {
		addr, err := dev.Append(payload)
		if err != nil {
			t.Fatal(err)
		}
		return func() ([]byte, error) { return dev.ReadAt(addr) }
	}
	mag := func() *storage.MagneticDisk { return storage.NewMagneticDisk(256, storage.CostModel{}) }
	cases := []struct {
		name   string
		reader func(t *testing.T) func() ([]byte, error)
	}{
		{name: "MagneticDisk", reader: func(t *testing.T) func() ([]byte, error) {
			dev := mag()
			return page(t, dev, dev)
		}},
		{name: "FaultyPages", reader: func(t *testing.T) func() ([]byte, error) {
			dev := storage.NewFaultyPages(mag())
			return page(t, dev, dev)
		}},
		{name: "PageFile", reader: func(t *testing.T) func() ([]byte, error) {
			pf, err := pagestore.Create(pagestore.Config{Path: filepath.Join(t.TempDir(), "pages.dev"), PageSize: 256})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { pf.Close() })
			return page(t, pf, pf)
		}},
		{name: "WORMDisk", reader: func(t *testing.T) func() ([]byte, error) {
			return run(t, storage.NewWORMDisk(storage.WORMConfig{SectorSize: 64}))
		}},
		{name: "BurnFile", reader: func(t *testing.T) func() ([]byte, error) {
			bf, err := pagestore.CreateBurn(pagestore.BurnConfig{Path: filepath.Join(t.TempDir(), "worm.dev"), SectorSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { bf.Close() })
			return run(t, bf)
		}},
		{name: "Pool/miss", reader: func(t *testing.T) func() ([]byte, error) {
			// Written beneath the pool: its first read misses, the
			// second hits.
			dev := mag()
			return page(t, dev, buffer.NewPool(dev, 4))
		}},
		{name: "Pool/hit", reader: func(t *testing.T) func() ([]byte, error) {
			// Written through the pool, which caches it: every read hits.
			pool := buffer.NewPool(mag(), 4)
			return page(t, pool, pool)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			read := c.reader(t)
			got, err := read()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("read %q, want %q", got, payload)
			}
			for i := range got {
				got[i] ^= 0xff
			}
			again, err := read()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, payload) {
				t.Fatalf("a write into the returned buffer reached the next read: %q", again)
			}
		})
	}
}
