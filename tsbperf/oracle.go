package main

import (
	"bytes"
	"fmt"
	"sort"
	"sync"

	"repro/internal/query"
	"repro/internal/record"
)

// current is the read time of a current-time get: later than every
// commit, below the pending marker. A connection owns its keys and its
// requests execute in order, so the version such a get must return is
// fixed by the puts sent before it on the same connection.
const current = record.TimePending - 1

type version struct {
	ts  record.Timestamp
	seq uint32
}

// model is the version oracle of one connection: every acknowledged
// (key, commit ts, value) it wrote. Values are not stored; version seq
// of key k has the bytes value(seed, conn, k, seq). The receiver
// appends acknowledgements and checks replies; the sender reads it to
// resolve as-of times, hence the mutex.
type model struct {
	mu        sync.Mutex
	seed      uint64
	conn      int
	valueSize int
	names     [][]byte
	hist      [][]version
	// tainted keys had a put whose outcome is unknown (it errored);
	// they are no longer checked.
	tainted []bool
	// nextSeq is the sender's next version number per key.
	nextSeq []uint32
}

func newModel(w workload, seed uint64, conn int) *model {
	names := keyNames(w, conn)
	return &model{
		seed:      seed,
		conn:      conn,
		valueSize: w.valueSize,
		names:     names,
		hist:      make([][]version, len(names)),
		tainted:   make([]bool, len(names)),
		nextSeq:   make([]uint32, len(names)),
	}
}

func (m *model) value(key int, seq uint32) []byte {
	return value(m.seed, m.conn, key, seq, m.valueSize)
}

// reserve returns the version number of the next put of key.
func (m *model) reserve(key int) uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.nextSeq[key]
	m.nextSeq[key]++
	return s
}

// ack records an acknowledged put. Commit times of one key must rise.
func (m *model) ack(key int, seq uint32, ts record.Timestamp) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.hist[key]
	if n := len(h); n > 0 && ts <= h[n-1].ts {
		return fmt.Errorf("key %s: commit ts %d not after acked ts %d", m.names[key], ts, h[n-1].ts)
	}
	m.hist[key] = append(h, version{ts: ts, seq: seq})
	return nil
}

func (m *model) taint(key int) {
	m.mu.Lock()
	m.tainted[key] = true
	m.mu.Unlock()
}

// readTime resolves a generated get to its read time. An as-of get
// reads version pick of the key's acknowledged history at a point
// frac of the way through that version's validity interval; a put in
// flight on this connection commits later than every acknowledged
// commit, so it cannot fall inside the interval.
func (m *model) readTime(o op, asOf bool) record.Timestamp {
	if !asOf {
		return current
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.hist[o.key]
	i := min(int(o.pick*float64(len(h))), len(h)-1)
	at := h[i].ts
	if i+1 < len(h) {
		at += record.Timestamp(o.frac * float64(h[i+1].ts-h[i].ts))
	}
	return at
}

// expect returns the latest acknowledged version of key at or before
// at.
func (m *model) expect(key int, at record.Timestamp) (version, bool) {
	h := m.hist[key]
	i := sort.Search(len(h), func(i int) bool { return h[i].ts > at })
	if i == 0 {
		return version{}, false
	}
	return h[i-1], true
}

// checkVersion compares one returned version with the model's.
func (m *model) checkVersion(key int, want version, got record.Version) error {
	switch {
	case !bytes.Equal(got.Key, m.names[key]):
		return fmt.Errorf("key %s: reply carries key %q", m.names[key], got.Key)
	case got.Time != want.ts:
		return fmt.Errorf("key %s: got version at ts %d, want ts %d", m.names[key], got.Time, want.ts)
	case got.Tombstone:
		return fmt.Errorf("key %s ts %d: got a tombstone", m.names[key], got.Time)
	case !bytes.Equal(got.Value, m.value(key, want.seq)):
		return fmt.Errorf("key %s ts %d: value differs from version %d", m.names[key], got.Time, want.seq)
	}
	return nil
}

// checkGet checks a get of key at time at against the model.
func (m *model) checkGet(key int, at record.Timestamp, got record.Version, found bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.tainted[key] {
		return nil
	}
	want, ok := m.expect(key, at)
	if !ok {
		if found {
			return fmt.Errorf("key %s at %d: got ts %d, want not found", m.names[key], at, got.Time)
		}
		return nil
	}
	if !found {
		return fmt.Errorf("key %s at %d: not found, want ts %d", m.names[key], at, want.ts)
	}
	return m.checkVersion(key, want, got)
}

// checkHistory checks a History(key) result: one row per version,
// oldest first, exactly the acknowledged versions.
func (m *model) checkHistory(key int, rows []query.Row) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.tainted[key] {
		return nil
	}
	h := m.hist[key]
	var got []record.Version
	for _, r := range rows {
		if !bytes.Equal(r.Key, m.names[key]) {
			return fmt.Errorf("history %s: row for key %q", m.names[key], r.Key)
		}
		got = append(got, r.Versions...)
	}
	if len(got) != len(h) {
		return fmt.Errorf("history %s: %d versions, want %d", m.names[key], len(got), len(h))
	}
	for i, v := range got {
		if err := m.checkVersion(key, h[i], v); err != nil {
			return fmt.Errorf("history version %d: %w", i, err)
		}
	}
	return nil
}

// versions returns the number of acknowledged versions and their user
// bytes (key plus value).
func (m *model) versions() (n int, user uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, h := range m.hist {
		n += len(h)
		user += uint64(len(h)) * uint64(len(m.names[k])+m.valueSize)
	}
	return n, user
}

func versions(models []*model) int {
	var n int
	for _, m := range models {
		k, _ := m.versions()
		n += k
	}
	return n
}
