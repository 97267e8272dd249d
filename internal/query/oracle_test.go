package query_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/db"
	"repro/internal/query"
	"repro/internal/record"
	"repro/internal/txn"
)

// The relational oracle: a naive in-memory model of every committed
// version, against which random operator trees are checked. The model
// evaluates each operator by brute force over the full version log —
// no trees, no cursors, no pushdown — so agreement with the streamed
// pipeline is evidence the whole stack (pushdown rewrite, paged window
// scans, parallel shard merge, join/group/diff operators) preserves
// relational semantics.

type mv struct {
	key  string
	time record.Timestamp
	val  string
	tomb bool
}

type model struct {
	vs []mv
}

func (m *model) keys() []string {
	set := map[string]bool{}
	for _, v := range m.vs {
		set[v.key] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (m *model) keysIn(low record.Key, high record.Bound) []string {
	var out []string
	for _, k := range m.keys() {
		rk := record.Key(k)
		if rk.Compare(low) < 0 || high.CompareKey(rk) <= 0 {
			continue
		}
		out = append(out, k)
	}
	return out
}

// visible returns the key's newest version at or before t, if it exists
// and is not a tombstone.
func (m *model) visible(key string, t record.Timestamp) (mv, bool) {
	var best mv
	found := false
	for _, v := range m.vs {
		if v.key == key && v.time <= t && (!found || v.time > best.time) {
			best, found = v, true
		}
	}
	if !found || best.tomb {
		return mv{}, false
	}
	return best, true
}

func (m *model) versionsOf(key string) []mv {
	var out []mv
	for _, v := range m.vs {
		if v.key == key {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].time < out[j].time })
	return out
}

func toVersion(v mv) record.Version {
	return record.Version{Key: record.Key(v.key), Time: v.time, Value: []byte(v.val), Tombstone: v.tomb}
}

// snapshotRows models a snapshot scan: per key, the newest version at
// or before t, tombstones hidden.
func (m *model) snapshotRows(low record.Key, high record.Bound, t record.Timestamp, reverse bool) []query.Row {
	var rows []query.Row
	for _, k := range m.keysIn(low, high) {
		if v, ok := m.visible(k, t); ok {
			rows = append(rows, query.Row{Key: record.Key(k), Versions: []record.Version{toVersion(v)}})
		}
	}
	if reverse {
		reverseRows(rows)
	}
	return rows
}

// windowRows models core.Tree.ScanRange: per key, the version alive at
// the window's start (newest strictly before `from`, kept only when it
// is not a tombstone and no version sits exactly at `from`) plus every
// version committed in [from, to), tombstones included, in (key, time)
// order — both descending under reverse.
func (m *model) windowRows(low record.Key, high record.Bound, from, to record.Timestamp, reverse bool) []query.Row {
	if to <= from {
		return nil
	}
	var rows []query.Row
	for _, k := range m.keysIn(low, high) {
		var set []mv
		var alive mv
		hasAlive, atFrom := false, false
		for _, v := range m.versionsOf(k) {
			switch {
			case v.time >= to:
			case v.time >= from:
				if v.time == from {
					atFrom = true
				}
				set = append(set, v)
			default:
				if !hasAlive || v.time > alive.time {
					alive, hasAlive = v, true
				}
			}
		}
		if hasAlive && !atFrom && !alive.tomb {
			set = append([]mv{alive}, set...)
		}
		if reverse {
			for i := len(set) - 1; i >= 0; i-- {
				rows = append(rows, query.Row{Key: record.Key(k), Versions: []record.Version{toVersion(set[i])}})
			}
		} else {
			for _, v := range set {
				rows = append(rows, query.Row{Key: record.Key(k), Versions: []record.Version{toVersion(v)}})
			}
		}
	}
	if reverse {
		reverseByKey(rows)
	}
	return rows
}

// diffRows models core.Tree.Diff: keys with at least one commit in (from, to],
// reported with the visible state at each endpoint; keys both created
// and dead inside the window produce nothing.
func (m *model) diffRows(low record.Key, high record.Bound, from, to record.Timestamp, reverse bool) []query.Row {
	if to <= from {
		return nil
	}
	var rows []query.Row
	for _, k := range m.keysIn(low, high) {
		changed := false
		for _, v := range m.versionsOf(k) {
			if v.time > from && v.time <= to {
				changed = true
			}
		}
		if !changed {
			continue
		}
		row := query.Row{Key: record.Key(k)}
		if before, ok := m.visible(k, from); ok {
			row.Versions = append(row.Versions, toVersion(before))
			row.HasBefore = true
		}
		if after, ok := m.visible(k, to); ok {
			row.Versions = append(row.Versions, toVersion(after))
			row.HasAfter = true
		}
		if !row.HasBefore && !row.HasAfter {
			continue
		}
		rows = append(rows, row)
	}
	if reverse {
		reverseRows(rows)
	}
	return rows
}

func reverseRows(rows []query.Row) {
	for l, r := 0, len(rows)-1; l < r; l, r = l+1, r-1 {
		rows[l], rows[r] = rows[r], rows[l]
	}
}

// reverseByKey flips key order while keeping each key's rows in their
// already-reversed per-key order (windowRows emits them per key).
func reverseByKey(rows []query.Row) {
	var out []query.Row
	for i := len(rows); i > 0; {
		j := i
		for j > 0 && rows[j-1].Key.Equal(rows[i-1].Key) {
			j--
		}
		out = append(out, rows[j:i]...)
		i = j
	}
	copy(rows, out)
}

// groupRuns splits a row stream into its consecutive equal-key runs.
func groupRuns(rows []query.Row) [][]query.Row {
	var runs [][]query.Row
	for i := 0; i < len(rows); {
		j := i + 1
		for j < len(rows) && rows[j].Key.Equal(rows[i].Key) {
			j++
		}
		runs = append(runs, rows[i:j])
		i = j
	}
	return runs
}

// eval runs the operator tree against the model at snapshot `at`,
// mirroring the streamed semantics by brute force.
func (m *model) eval(s *query.Spec, at record.Timestamp) []query.Row {
	switch s.Kind {
	case query.OpScan:
		if s.From == 0 && s.To == 0 {
			t := s.At
			if t == 0 {
				t = at
			}
			return m.snapshotRows(s.Low, s.High, t, s.Reverse)
		}
		return m.windowRows(s.Low, s.High, s.From, s.To, s.Reverse)
	case query.OpHistory:
		from, to := s.From, s.To
		if from == 0 {
			from = record.TimeZero + 1
		}
		if to == 0 {
			to = record.TimeInfinity
		}
		high := record.KeyBound(append(s.Key.Clone(), 0))
		return m.windowRows(s.Key, high, from, to, s.Reverse)
	case query.OpDiff:
		return m.diffRows(s.Low, s.High, s.From, s.To, s.Reverse)
	case query.OpFilter:
		var out []query.Row
		for _, r := range m.eval(s.Input, at) {
			if s.HasKeyRange {
				if r.Key.Compare(s.FilterLow) < 0 || s.FilterHigh.CompareKey(r.Key) <= 0 {
					continue
				}
			}
			if s.ValuePrefix != nil {
				if len(r.Versions) == 0 || !bytes.HasPrefix(r.Versions[0].Value, s.ValuePrefix) {
					continue
				}
			}
			out = append(out, r)
		}
		return out
	case query.OpProject:
		var out []query.Row
		for _, r := range m.eval(s.Input, at) {
			vs := make([]record.Version, len(r.Versions))
			for i, v := range r.Versions {
				v.Value = nil
				v.TxnID = 0
				vs[i] = v
			}
			r.Versions = vs
			out = append(out, r)
		}
		return out
	case query.OpGroupBy:
		var out []query.Row
		for _, run := range groupRuns(m.eval(s.Input, at)) {
			agg := query.Row{Key: run[0].Key}
			var first, last record.Version
			haveFirst := false
			for _, r := range run {
				agg.Count += uint64(len(r.Versions))
				for _, v := range r.Versions {
					if !haveFirst {
						first, haveFirst = v, true
					}
					last = v
				}
			}
			if haveFirst {
				if agg.Count > 1 {
					agg.Versions = []record.Version{first, last}
				} else {
					agg.Versions = []record.Version{first}
				}
			}
			out = append(out, agg)
		}
		return out
	case query.OpLimit:
		rows := m.eval(s.Input, at)
		if uint64(len(rows)) > s.Limit {
			rows = rows[:s.Limit]
		}
		return rows
	case query.OpMergeJoin:
		lruns := groupRuns(m.eval(s.Left, at))
		rruns := groupRuns(m.eval(s.Right, at))
		reverse := specReverse(s.Left)
		var out []query.Row
		i, j := 0, 0
		cmp := func(a, b record.Key) int {
			if reverse {
				return b.Compare(a)
			}
			return a.Compare(b)
		}
		for i < len(lruns) && j < len(rruns) {
			switch c := cmp(lruns[i][0].Key, rruns[j][0].Key); {
			case c < 0:
				i++
			case c > 0:
				j++
			default:
				for _, l := range lruns[i] {
					for _, r := range rruns[j] {
						vs := make([]record.Version, 0, len(l.Versions)+len(r.Versions))
						vs = append(append(vs, l.Versions...), r.Versions...)
						out = append(out, query.Row{
							Key:       l.Key,
							Versions:  vs,
							Count:     l.Count + r.Count,
							HasBefore: l.HasBefore || r.HasBefore,
							HasAfter:  l.HasAfter || r.HasAfter,
						})
					}
				}
				i++
				j++
			}
		}
		return out
	case query.OpSecondaryJoin:
		lookupAt := s.At
		if lookupAt == 0 {
			lookupAt = at
		}
		member := map[string]bool{}
		for _, k := range m.keys() {
			if v, ok := m.visible(k, lookupAt); ok && len(v.val) > 0 && v.val[:1] == string(s.SKey) {
				member[k] = true
			}
		}
		var out []query.Row
		for _, r := range m.eval(s.Input, at) {
			if member[string(r.Key)] {
				out = append(out, r)
			}
		}
		return out
	}
	return nil
}

func specReverse(s *query.Spec) bool {
	switch {
	case s == nil:
		return false
	case s.Input != nil:
		return specReverse(s.Input)
	case s.Left != nil:
		return specReverse(s.Left)
	default:
		return s.Reverse
	}
}

// canon serializes a row stream canonically; byte equality of two
// streams is the oracle's verdict. TxnID is excluded — the model does
// not track transaction ids.
func canon(rows []query.Row) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "K=%q C=%d B=%v A=%v [", r.Key, r.Count, r.HasBefore, r.HasAfter)
		for _, v := range r.Versions {
			fmt.Fprintf(&b, "(%q@%d t=%v %q)", v.Key, v.Time, v.Tombstone, v.Value)
		}
		b.WriteString("]\n")
	}
	return b.String()
}

func specString(s *query.Spec) string {
	if s == nil {
		return "nil"
	}
	desc := fmt.Sprintf("%s{low=%q high=%v at=%d from=%d to=%d key=%q rev=%v par=%v flow=%q fhigh=%v vp=%q skey=%q lim=%d}",
		s.Kind, s.Low, s.High, s.At, s.From, s.To, s.Key, s.Reverse, s.Parallel,
		s.FilterLow, s.FilterHigh, s.ValuePrefix, s.SKey, s.Limit)
	switch {
	case s.Left != nil:
		return desc + "(" + specString(s.Left) + ", " + specString(s.Right) + ")"
	case s.Input != nil:
		return desc + "(" + specString(s.Input) + ")"
	}
	return desc
}

// --- dataset and spec generation ---

func buildDataset(t *testing.T, r *rand.Rand) (*db.DB, *model, []string) {
	t.Helper()
	shards := 1 + r.Intn(8)
	d, err := db.Open(db.Config{Shards: shards, LeafCapacity: 256, IndexCapacity: 1024})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := d.CreateSecondary("byclass", func(v []byte) record.Key {
		if len(v) == 0 {
			return nil
		}
		return record.Key(v[:1])
	}); err != nil {
		t.Fatalf("create secondary: %v", err)
	}

	nkeys := 8 + r.Intn(25)
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i)
	}
	m := &model{}
	live := map[string]bool{}
	rounds := 20 + r.Intn(30)
	for i := 0; i < rounds; i++ {
		picked := map[string]bool{}
		n := 1 + r.Intn(4)
		type op struct {
			key, val string
			del      bool
		}
		var ops []op
		for j := 0; j < n; j++ {
			k := keys[r.Intn(nkeys)]
			if picked[k] {
				continue // one write per key per txn
			}
			picked[k] = true
			if live[k] && r.Intn(5) == 0 {
				ops = append(ops, op{key: k, del: true})
			} else {
				val := fmt.Sprintf("%c%03d", 'a'+r.Intn(3), r.Intn(1000))
				ops = append(ops, op{key: k, val: val})
			}
		}
		if len(ops) == 0 {
			continue
		}
		var tx *txn.Txn
		err := d.Update(func(t *txn.Txn) error {
			tx = t
			for _, o := range ops {
				if o.del {
					if err := t.Delete(record.Key(o.key)); err != nil {
						return err
					}
				} else if err := t.Put(record.Key(o.key), []byte(o.val)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("update: %v", err)
		}
		ct := tx.CommitTime()
		for _, o := range ops {
			m.vs = append(m.vs, mv{key: o.key, time: ct, val: o.val, tomb: o.del})
			live[o.key] = !o.del
		}
	}
	return d, m, keys
}

// genSpec builds a random valid operator tree whose every time bound is
// at or before `at`, so results are stable under concurrent writers.
func genSpec(r *rand.Rand, keys []string, at record.Timestamp) *query.Spec {
	randKey := func() record.Key { return record.Key(keys[r.Intn(len(keys))]) }
	randLow := func() record.Key {
		if r.Intn(3) == 0 {
			return nil
		}
		return randKey()
	}
	randHigh := func() record.Bound {
		if r.Intn(3) == 0 {
			return record.InfiniteBound()
		}
		return record.KeyBound(randKey())
	}
	randTime := func() record.Timestamp { return 1 + record.Timestamp(r.Int63n(int64(at))) }
	reverse := r.Intn(2) == 0

	source := func() *query.Spec {
		switch r.Intn(5) {
		case 0: // snapshot scan
			s := query.Scan(randLow(), randHigh())
			s.Reverse = reverse
			s.Parallel = r.Intn(2) == 0
			return s
		case 1: // window scan
			from := randTime()
			to := from + 1 + record.Timestamp(r.Int63n(int64(at-from)+2))
			if to > at+1 {
				to = at + 1
			}
			s := query.Window(randLow(), randHigh(), from, to)
			s.Reverse = reverse
			s.Parallel = r.Intn(2) == 0
			return s
		case 2: // history
			s := query.History(randKey())
			s.From, s.To = 1, at+1
			s.Reverse = reverse
			return s
		case 3: // diff
			t1 := randTime()
			t2 := t1 + record.Timestamp(r.Int63n(int64(at-t1)+1))
			s := query.Diff(randLow(), randHigh(), t1, t2)
			s.Reverse = reverse
			return s
		default: // merge join of two scans
			l := query.Scan(randLow(), randHigh())
			l.Reverse = reverse
			l.Parallel = r.Intn(2) == 0
			rg := query.Scan(randLow(), randHigh())
			rg.Reverse = reverse
			return l.Join(rg)
		}
	}

	s := source()
	for n := r.Intn(3); n > 0; n-- {
		switch r.Intn(5) {
		case 0:
			lo, hi := randLow(), randHigh()
			s = s.Filter(lo, hi)
		case 1:
			s = s.FilterValuePrefix([]byte{byte('a' + r.Intn(3))})
		case 2:
			s = s.Project()
		case 3:
			s = s.GroupBy()
		default:
			s = s.JoinSecondary("byclass", record.Key{byte('a' + r.Intn(3))}, at)
		}
	}
	if r.Intn(3) == 0 {
		s = s.WithLimit(uint64(1 + r.Intn(20)))
	}
	return s
}

func collectRowsAt(t *testing.T, d *db.DB, at record.Timestamp, spec *query.Spec) []query.Row {
	t.Helper()
	op, err := d.QueryAt(at, spec)
	if err != nil {
		t.Fatalf("query %s: %v", specString(spec), err)
	}
	defer op.Close()
	var out []query.Row
	for op.Next() {
		out = append(out, op.Row())
	}
	if err := op.Err(); err != nil {
		t.Fatalf("rows %s: %v", specString(spec), err)
	}
	return out
}

// TestQueryOracle is the property test: random datasets (1–8 shards) ×
// random operator trees, the streamed pipeline byte-identical to the
// naive relational oracle, while background writers commit on every
// shard (run with -race: the pinned snapshot keeps results stable, and
// the writers make any latch-discipline violation in the parallel
// scans visible).
func TestQueryOracle(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			d, m, keys := buildDataset(t, r)
			defer d.Close()
			at := d.Now()

			// Background writers: concurrent commits spread over every
			// shard while the queries stream.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						_ = d.Update(func(tx *txn.Txn) error {
							return tx.Put(record.Key(fmt.Sprintf("zw%d-%06d", w, i%64)), []byte("zz"))
						})
					}
				}(w)
			}
			defer func() { close(stop); wg.Wait() }()

			for q := 0; q < 30; q++ {
				spec := genSpec(r, keys, at)
				if err := spec.Validate(); err != nil {
					t.Fatalf("generator produced invalid spec %s: %v", specString(spec), err)
				}
				want := canon(m.eval(spec, at))
				got := canon(collectRowsAt(t, d, at, spec))
				if got != want {
					t.Fatalf("query %d diverged from oracle\nspec: %s\n--- engine ---\n%s--- oracle ---\n%s",
						q, specString(spec), got, want)
				}
			}
		})
	}
}
