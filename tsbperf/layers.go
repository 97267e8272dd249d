package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/record"
	"repro/internal/txn"
)

// snap is the engine's accounting at one instant, read from outside
// the program: db.Stats(), the metric exposition of d.Metrics() (which
// carries the server's series once RegisterMetrics ran), and each
// shard tree's insert count.
type snap struct {
	st      db.Stats
	series  map[string]float64
	inserts []uint64
}

func takeSnap(d *db.DB) (snap, error) {
	s := snap{st: d.Stats(), series: make(map[string]float64)}
	var buf bytes.Buffer
	if err := d.Metrics().WritePrometheus(&buf); err != nil {
		return snap{}, err
	}
	samples, err := obs.ParseExposition(buf.Bytes())
	if err != nil {
		return snap{}, fmt.Errorf("parse exposition: %w", err)
	}
	for _, x := range samples {
		s.series[x.Series] = x.Value
	}
	for i := 0; i < d.Shards(); i++ {
		if err := d.WithShardTree(i, func(t *core.Tree) error {
			s.inserts = append(s.inserts, t.Stats().Inserts)
			return nil
		}); err != nil {
			return snap{}, err
		}
	}
	return s, nil
}

// span of two snapshots.
type delta struct{ a, b snap }

// sum adds the change of every series named name whose label block
// holds all of labels (each written as key="value").
func (w delta) sum(name string, labels ...string) float64 {
	var v float64
	for series, x := range w.b.series {
		rest, ok := strings.CutPrefix(series, name)
		if !ok || (rest != "" && rest[0] != '{') {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				match = false
				break
			}
		}
		if match {
			v += x - w.a.series[series]
		}
	}
	return v
}

// histMean is a histogram's mean in microseconds over the delta, from
// its _sum and _count series (0 without samples).
func (w delta) histMean(name string, labels ...string) float64 {
	return ratio(w.sum(name+"_sum", labels...)*1e6, w.sum(name+"_count", labels...))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// probeResult is what the direct calls into the layers measured.
type probeResult struct {
	pages     float64 // pages the probeGets point reads touched
	compileUs float64 // mean db.QueryAt
	nextUs    float64 // mean Operator.Next
	spans     []span
}

// probeCounts sizes the direct-call phase of a traced run.
const (
	probeGets    = 400
	probeUpdates = 50
	probeQueries = 100
)

// probe times direct calls into the layers' public functions on the
// loaded database, after the served phase: db.GetAsOf (each with its
// db.Stats() buffer delta; burn-file reads are counted over the batch),
// db.Update, db.QueryAt plus every Operator.Next, and db.Checkpoint.
// Reads mirror the workload's reads and are checked against the
// oracle; updates join connection 0's model.
func probe(d *db.DB, w workload, models []*model, seed uint64, clk runClock) (probeResult, error) {
	var pr probeResult
	rng := rand.New(rand.NewPCG(seed, 0x70726f6265))
	call := func(name string, fn func() error) (time.Duration, error) {
		s := span{conn: -1, id: uint64(len(pr.spans)), name: name, start: clk.now()}
		err := fn()
		s.end = clk.now()
		pr.spans = append(pr.spans, s)
		return time.Duration(s.end - s.start), err
	}

	before, err := takeSnap(d)
	if err != nil {
		return pr, err
	}
	for i := 0; i < probeGets; i++ {
		m := models[i%len(models)]
		o := op{key: rng.IntN(w.keys), pick: rng.Float64(), frac: rng.Float64()}
		at := m.readTime(o, w.asOf)
		s0 := d.Stats()
		var v record.Version
		var found bool
		if _, err := call("db.GetAsOf", func() (err error) {
			v, found, err = d.GetAsOf(record.PrefixKey(nil, m.names[o.key]), at)
			return err
		}); err != nil {
			return pr, err
		}
		s1 := d.Stats()
		pr.pages += float64(s1.Buffer.Hits + s1.Buffer.Misses - s0.Buffer.Hits - s0.Buffer.Misses)
		if err := m.checkGet(o.key, at, strip(v), found); err != nil {
			return pr, fmt.Errorf("direct get: %w", err)
		}
	}
	after, err := takeSnap(d)
	if err != nil {
		return pr, err
	}
	// Historical nodes come from the burn file, which no pool caches.
	pr.pages += delta{before, after}.sum("tsb_device_read_seconds_count", `device="worm"`)

	m := models[0]
	for i := 0; i < probeUpdates; i++ {
		key := rng.IntN(w.keys)
		seq := m.reserve(key)
		var tx *txn.Txn
		if _, err := call("db.Update", func() error {
			return d.Update(func(t *txn.Txn) error {
				tx = t
				return t.Put(record.PrefixKey(nil, m.names[key]), m.value(key, seq))
			})
		}); err != nil {
			return pr, err
		}
		if err := m.ack(key, seq, tx.CommitTime()); err != nil {
			return pr, fmt.Errorf("direct update: %w", err)
		}
	}

	var compile, next time.Duration
	var nexts int
	for i := 0; i < probeQueries; i++ {
		m := models[i%len(models)]
		key := rng.IntN(w.keys)
		if w.static > 0 {
			key = w.keys + rng.IntN(w.static)
		}
		var opr query.Operator
		took, err := call("db.QueryAt", func() (err error) {
			opr, err = d.QueryAt(d.Now(), query.History(record.PrefixKey(nil, m.names[key])))
			return err
		})
		if err != nil {
			return pr, err
		}
		compile += took
		var rows []query.Row
		for {
			var more bool
			took, _ := call("Operator.Next", func() error { more = opr.Next(); return nil })
			next += took
			nexts++
			if !more {
				break
			}
			r := opr.Row()
			r.Key, _ = record.StripPrefix(nil, r.Key)
			for j := range r.Versions {
				r.Versions[j] = strip(r.Versions[j])
			}
			rows = append(rows, r)
		}
		if err := opr.Err(); err != nil {
			return pr, err
		}
		if err := opr.Close(); err != nil {
			return pr, err
		}
		if err := m.checkHistory(key, rows); err != nil {
			return pr, fmt.Errorf("direct query: %w", err)
		}
	}
	pr.compileUs = float64(compile.Nanoseconds()) / 1e3 / probeQueries
	pr.nextUs = float64(next.Nanoseconds()) / 1e3 / float64(nexts)

	if _, err := call("db.Checkpoint", d.Checkpoint); err != nil {
		return pr, err
	}
	return pr, nil
}

// strip maps a version read directly from the engine back into the
// served (empty-tenant) namespace the oracle speaks.
func strip(v record.Version) record.Version {
	if k, ok := record.StripPrefix(nil, v.Key); ok {
		v.Key = k
	}
	return v
}

// verify reads every acknowledged version back from a reopened
// database: the whole history of each key, and each version at its
// commit timestamp.
func verify(d *db.DB, models []*model) error {
	for _, m := range models {
		for key, name := range m.names {
			pk := record.PrefixKey(nil, name)
			vs, err := d.History(pk)
			if err != nil {
				return err
			}
			rows := make([]query.Row, len(vs))
			for i, v := range vs {
				v = strip(v)
				rows[i] = query.Row{Key: v.Key, Versions: []record.Version{v}}
			}
			if err := m.checkHistory(key, rows); err != nil {
				return fmt.Errorf("after reopen: %w", err)
			}
			for _, want := range m.hist[key] {
				v, found, err := d.GetAsOf(pk, want.ts)
				if err != nil {
					return err
				}
				if err := m.checkGet(key, want.ts, strip(v), found); err != nil {
					return fmt.Errorf("after reopen: %w", err)
				}
			}
		}
	}
	return nil
}
