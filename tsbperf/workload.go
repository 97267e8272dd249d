package main

import (
	"fmt"
	"math/rand/v2"
)

// workload is one traffic mix. Every connection owns a disjoint key
// set: hot keys, which gets and puts address, and optionally static
// keys, which the preload writes once and only History reads.
type workload struct {
	name string
	// keys is the hot key count per connection; depth is how many
	// versions of each hot key the preload writes.
	keys  int
	depth int
	// static is the never-rewritten key count per connection that
	// History reads; 0 means History reads the hot keys.
	static    int
	valueSize int
	// getPct + putPct + scanPct = 100. A scan is one History(k) query.
	getPct, putPct, scanPct int
	// asOf makes gets read a uniformly chosen past version of the key
	// instead of the current one.
	asOf bool
	// checkpointBytes is db.Config.CheckpointBytes, as tsbserve
	// -checkpoint-bytes sets it (0 = engine default, 4 MiB).
	checkpointBytes int64
}

var workloads = []workload{
	{
		name: "point-hot",
		keys: 256, depth: 1, static: 64, valueSize: 64,
		getPct: 79, putPct: 20, scanPct: 1,
	},
	{
		name: "asof-history",
		keys: 512, depth: 8, valueSize: 64,
		getPct: 85, putPct: 5, scanPct: 10, asOf: true,
	},
	{
		name: "ingest",
		keys: 4096, depth: 1, static: 64, valueSize: 128,
		getPct: 10, putPct: 89, scanPct: 1, checkpointBytes: 256 << 10,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled shrinks the key sets for short self-test runs.
func (w workload) scaled(f float64) workload {
	if f <= 0 || f >= 1 {
		return w
	}
	w.keys = max(8, int(float64(w.keys)*f))
	if w.static > 0 {
		w.static = max(4, int(float64(w.static)*f))
	}
	return w
}

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opScan
	numKinds
)

var kindNames = [numKinds]string{"get", "put", "scan"}

// op is one generated request. For an as-of get, pick and frac choose
// the version and the point inside its validity interval; they are
// resolved against the acknowledged history when the get is sent.
type op struct {
	kind opKind
	key  int // index into the connection's key table
	pick float64
	frac float64
}

// generator draws one connection's op stream from the run seed.
type generator struct {
	w   workload
	rng *rand.Rand
}

func newGenerator(w workload, seed uint64, conn int) *generator {
	return &generator{w: w, rng: rand.New(rand.NewPCG(seed, uint64(conn)+1))}
}

func (g *generator) next() op {
	r := g.rng.IntN(100)
	o := op{pick: g.rng.Float64(), frac: g.rng.Float64()}
	switch {
	case r < g.w.getPct:
		o.kind = opGet
		o.key = g.rng.IntN(g.w.keys)
	case r < g.w.getPct+g.w.putPct:
		o.kind = opPut
		o.key = g.rng.IntN(g.w.keys)
	default:
		o.kind = opScan
		if g.w.static > 0 {
			o.key = g.w.keys + g.rng.IntN(g.w.static)
		} else {
			o.key = g.rng.IntN(g.w.keys)
		}
	}
	return o
}

// keyNames returns connection conn's user keys: hot keys first, then
// static keys. Static keys sort apart from every hot key, so their
// leaves never time split.
func keyNames(w workload, conn int) [][]byte {
	names := make([][]byte, 0, w.keys+w.static)
	for i := 0; i < w.keys; i++ {
		names = append(names, fmt.Appendf(nil, "k%d-%06d", conn, i))
	}
	for i := 0; i < w.static; i++ {
		names = append(names, fmt.Appendf(nil, "s%d-%04d", conn, i))
	}
	return names
}

// value derives the bytes of version seq of key on conn from the seed,
// so the oracle stores no values.
func value(seed uint64, conn, key int, seq uint32, size int) []byte {
	x := seed ^ uint64(conn)<<56 ^ uint64(key)<<24 ^ uint64(seq)
	out := make([]byte, size)
	for i := 0; i < size; i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		for j := 0; j < 8 && i+j < size; j++ {
			out[i+j] = byte(z >> (8 * j))
		}
	}
	return out
}
