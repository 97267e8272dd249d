package record

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// The codec is a small, allocation-conscious binary encoder/decoder used by
// every node format in the repository (TSB-tree nodes, WOBT sectors, B+-tree
// pages). Integers are unsigned varints, byte strings are length-prefixed.
// Decoders carry a sticky error so call sites can decode a whole structure
// and check once, in the style of bufio.Scanner.

// ErrCorrupt is returned when a page or sector does not decode cleanly.
var ErrCorrupt = errors.New("record: corrupt encoding")

// Encoder appends binary fields to a byte slice.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder that appends to buf (which may be nil).
func NewEncoder(buf []byte) *Encoder { return &Encoder{buf: buf} }

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Byte appends a single byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(b bool) {
	if b {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// Blob appends a length-prefixed byte string.
func (e *Encoder) Blob(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Time appends a timestamp.
func (e *Encoder) Time(t Timestamp) { e.Uvarint(uint64(t)) }

// Key appends a length-prefixed key.
func (e *Encoder) Key(k Key) { e.Blob(k) }

// Bound appends a key bound.
func (e *Encoder) Bound(b Bound) {
	e.Bool(b.inf)
	if !b.inf {
		e.Blob(b.key)
	}
}

// Rect appends a rectangle.
func (e *Encoder) Rect(r Rect) {
	e.Key(r.LowKey)
	e.Bound(r.HighKey)
	e.Time(r.Start)
	e.Time(r.End)
}

// Version appends a version record.
func (e *Encoder) Version(v Version) {
	var flags byte
	if v.Tombstone {
		flags |= 1
	}
	e.Byte(flags)
	e.Key(v.Key)
	e.Time(v.Time)
	e.Uvarint(v.TxnID)
	e.Blob(v.Value)
}

// Versions appends a count-prefixed run of version records: the wire
// encoding of a commit's write set in the write-ahead log's frames.
func (e *Encoder) Versions(vs []Version) {
	e.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.Version(v)
	}
}

// The size rules below mirror the Encoder field by field: each returns
// exactly the number of bytes the matching Encoder method appends, so a
// page's encoded length can be computed without building it.

// UvarintSize returns the length of v's unsigned varint encoding.
func UvarintSize(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// MinVersionSize is the smallest encoding of a version: the flags byte
// and one byte each for an empty key, the time, the txn id and an empty
// value.
const MinVersionSize = 5

// blobSize returns what Encoder.Blob appends for a byte string of n
// bytes.
func blobSize(n int) int { return UvarintSize(uint64(n)) + n }

// EncodedSize returns the number of bytes Encoder.Rect appends for r.
func (r Rect) EncodedSize() int {
	bound := 1 // Encoder.Bound's infinity flag
	if !r.HighKey.inf {
		bound += blobSize(len(r.HighKey.key))
	}
	return blobSize(len(r.LowKey)) + bound +
		UvarintSize(uint64(r.Start)) + UvarintSize(uint64(r.End))
}

// EncodedSize returns the exact number of bytes the version occupies on a
// page: what Encoder.Version appends.
func (v Version) EncodedSize() int {
	return 1 + blobSize(len(v.Key)) + UvarintSize(uint64(v.Time)) +
		UvarintSize(v.TxnID) + blobSize(len(v.Value))
}

// Decoder reads binary fields from a byte slice with a sticky error.
type Decoder struct {
	buf     []byte
	off     int
	err     error
	inPlace bool
}

// NewDecoder returns a decoder over buf whose byte strings are copies.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// NewDecoderInPlace returns a decoder over buf whose byte strings (Blob,
// and through it Key, Bound, Rect and Version) are capped subslices of
// buf rather than copies: one allocation per page instead of one per
// field. The caller must own buf and never modify it; a decoded value
// the caller keeps pins the whole of buf. Capping makes an append to a
// returned slice reallocate instead of writing into its neighbour.
func NewDecoderInPlace(buf []byte) *Decoder { return &Decoder{buf: buf, inPlace: true} }

// Err returns the first decoding error encountered, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of undecoded bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: at offset %d of %d", ErrCorrupt, d.off, len(d.buf))
	}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// Byte reads a single byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail()
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Bool reads a boolean.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// Blob reads a length-prefixed byte string. The returned slice is a copy,
// safe to retain after the page buffer is recycled, unless the decoder
// was made by NewDecoderInPlace.
func (d *Decoder) Blob() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(d.Remaining()) < n {
		d.fail()
		return nil
	}
	end := d.off + int(n)
	var out []byte
	if d.inPlace {
		out = d.buf[d.off:end:end]
	} else {
		out = make([]byte, n)
		copy(out, d.buf[d.off:end])
	}
	d.off = end
	return out
}

// Time reads a timestamp.
func (d *Decoder) Time() Timestamp { return Timestamp(d.Uvarint()) }

// Key reads a key.
func (d *Decoder) Key() Key {
	b := d.Blob()
	if len(b) == 0 {
		return nil
	}
	return Key(b)
}

// Bound reads a key bound.
func (d *Decoder) Bound() Bound {
	if d.Bool() {
		return InfiniteBound()
	}
	b := d.Blob()
	if len(b) == 0 {
		return KeyBound(nil)
	}
	return KeyBound(Key(b))
}

// Rect reads a rectangle.
func (d *Decoder) Rect() Rect {
	var r Rect
	r.LowKey = d.Key()
	r.HighKey = d.Bound()
	r.Start = d.Time()
	r.End = d.Time()
	return r
}

// Version reads a version record.
func (d *Decoder) Version() Version {
	var v Version
	flags := d.Byte()
	v.Tombstone = flags&1 != 0
	v.Key = d.Key()
	v.Time = d.Time()
	v.TxnID = d.Uvarint()
	v.Value = d.Blob()
	return v
}

// Versions reads a count-prefixed run of version records written by
// Encoder.Versions.
func (d *Decoder) Versions() []Version {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	// A count exceeding Remaining/MinVersionSize is corrupt, not merely
	// big — and the pre-allocation below is further capped so a crafted
	// count can never balloon memory ahead of the decode failing.
	if n > uint64(d.Remaining())/MinVersionSize {
		d.fail()
		return nil
	}
	out := make([]Version, 0, min(n, 1024))
	for i := uint64(0); i < n; i++ {
		v := d.Version()
		if d.err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}
