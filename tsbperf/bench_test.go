package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/record"
)

type benchFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// testModel is a model of connection 0 holding three acknowledged
// versions of key 0, at commit times 10, 20 and 30.
func testModel(t *testing.T) *model {
	t.Helper()
	m := newModel(workloads[1].scaled(0.01), 7, 0)
	for _, ts := range []record.Timestamp{10, 20, 30} {
		if err := m.ack(0, m.reserve(0), ts); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func reply(m *model, ts record.Timestamp, seq uint32) record.Version {
	return record.Version{Key: m.names[0], Time: ts, Value: m.value(0, seq)}
}

func TestOracleAcceptsOnlyTheDeterminedVersion(t *testing.T) {
	m := testModel(t)
	ok := []struct {
		at    record.Timestamp
		got   record.Version
		found bool
	}{
		{5, record.Version{}, false},
		{10, reply(m, 10, 0), true},
		{25, reply(m, 20, 1), true},
		{current, reply(m, 30, 2), true},
	}
	for _, c := range ok {
		if err := m.checkGet(0, c.at, c.got, c.found); err != nil {
			t.Errorf("at %d: correct reply rejected: %v", c.at, err)
		}
	}

	flipped := reply(m, 20, 1)
	flipped.Value[3] ^= 1
	otherKey := reply(m, 20, 1)
	otherKey.Key = m.names[1]
	tomb := reply(m, 20, 1)
	tomb.Tombstone = true
	bad := []struct {
		name  string
		at    record.Timestamp
		got   record.Version
		found bool
	}{
		{"flipped value byte", 25, flipped, true},
		{"older version", 25, reply(m, 10, 0), true},
		{"newer version", 25, reply(m, 30, 2), true},
		{"value of another version", 25, record.Version{Key: m.names[0], Time: 20, Value: m.value(0, 2)}, true},
		{"missing version", 25, record.Version{}, false},
		{"version before the first", 5, reply(m, 10, 0), true},
		{"another key", 25, otherKey, true},
		{"tombstone", 25, tomb, true},
	}
	for _, c := range bad {
		if err := m.checkGet(0, c.at, c.got, c.found); err == nil {
			t.Errorf("%s: corrupted reply accepted", c.name)
		}
	}
}

func TestOracleChecksHistory(t *testing.T) {
	m := testModel(t)
	rows := func(vs ...record.Version) []query.Row {
		var out []query.Row
		for _, v := range vs {
			out = append(out, query.Row{Key: v.Key, Versions: []record.Version{v}})
		}
		return out
	}
	v0, v1, v2 := reply(m, 10, 0), reply(m, 20, 1), reply(m, 30, 2)
	if err := m.checkHistory(0, rows(v0, v1, v2)); err != nil {
		t.Fatalf("correct history rejected: %v", err)
	}
	for name, rs := range map[string][]query.Row{
		"missing version": rows(v0, v2),
		"reordered":       rows(v1, v0, v2),
		"extra version":   rows(v0, v1, v2, v2),
		"empty":           nil,
	} {
		if err := m.checkHistory(0, rs); err == nil {
			t.Errorf("%s: corrupted history accepted", name)
		}
	}
}

// A corrupted reply that reaches a connection's receiver marks the run
// wrong.
func TestCorruptReplyFailsTheRun(t *testing.T) {
	m := testModel(t)
	var halt, tracing atomic.Bool
	lp := &connLoop{m: m, halt: &halt, tracing: &tracing, clk: runClock{base: time.Now()}}
	v := reply(m, 20, 1) // History must return all three versions
	q := make(chan *pending, 1)
	sem := make(chan struct{}, 1)
	sem <- struct{}{}
	q <- &pending{op: op{kind: opScan}, rows: []query.Row{{Key: v.Key, Versions: []record.Version{v}}}, done: 1}
	close(q)
	lp.receive(q, sem)
	if lp.wrong == nil {
		t.Fatal("corrupted History reply did not fail the run")
	}
}

// A short run of each workload, untraced and traced, passes the oracle
// and the reopen check and reports exactly the metrics BENCHMARK.json
// names, with their units.
func TestShortRunReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchFile(t)
	for _, wl := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			res, err := run(config{
				workload: wl.Name, seed: 5, measure: 600 * time.Millisecond, warmup: 200 * time.Millisecond,
				trace: trace, setups: 2, scale: 0.1, root: t.TempDir(),
			}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%t: correct=%t attempted=%d failed=%d", wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", wl.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// Every workload in BENCHMARK.json exists, and the interaction map
// covers every layer metric, predicting moves of end-to-end metrics
// and served timings on declared workloads only.
func TestInteractionMapMatchesBenchmark(t *testing.T) {
	bf := readBenchFile(t)
	var names, e2e, layers []string
	for _, w := range bf.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
		names = append(names, w.Name)
	}
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, m.Name)
		if strings.HasPrefix(m.Name, "client.") || strings.HasPrefix(m.Name, "process.") {
			e2e = append(e2e, m.Name) // served timings, reported without a bound
		}
	}
	data, err := os.ReadFile("interactions.json")
	if err != nil {
		t.Fatal(err)
	}
	var im struct {
		Map []struct {
			Metric    string
			Moves     [][2]string
			Unchanged [][2]string
		}
	}
	if err := json.Unmarshal(data, &im); err != nil {
		t.Fatal(err)
	}
	var mapped []string
	for _, e := range im.Map {
		if !slices.Contains(e2e, e.Metric) {
			mapped = append(mapped, e.Metric)
		}
		for _, p := range append(e.Moves, e.Unchanged...) {
			if !slices.Contains(e2e, p[0]) || !slices.Contains(names, p[1]) {
				t.Errorf("%s: unknown pair %v", e.Metric, p)
			}
		}
	}
	layers = slices.DeleteFunc(layers, func(n string) bool { return slices.Contains(e2e, n) })
	slices.Sort(mapped)
	slices.Sort(layers)
	if !slices.Equal(mapped, layers) {
		t.Errorf("interaction map covers %v,\nBENCHMARK.json per_layer is %v", mapped, layers)
	}
}
