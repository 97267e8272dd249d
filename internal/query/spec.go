package query

import (
	"fmt"

	"repro/internal/record"
)

// OpKind identifies one node of an operator tree.
type OpKind byte

// Operator kinds. Scan, History, and Diff are sources (leaves); the
// rest transform the stream of their Input (MergeJoin: Left and Right).
const (
	OpScan OpKind = iota + 1
	OpHistory
	OpDiff
	OpFilter
	OpProject
	OpMergeJoin
	OpSecondaryJoin
	OpGroupBy
	OpLimit
)

// MaxSpecDepth bounds operator-tree nesting; MaxSpecNodes bounds total
// node count. Both guard the wire decode path against crafted trees.
const (
	MaxSpecDepth = 16
	MaxSpecNodes = 64
)

// Spec is one node of a serializable operator tree: the plan form a
// query travels in (the builder methods below grow it, the wire
// protocol ships it, Compile turns it into a running Operator).
//
// Field meaning depends on Kind; Validate enforces the combinations.
type Spec struct {
	Kind OpKind

	// Scan/Diff key window.
	Low  record.Key
	High record.Bound
	// At pins a Scan's snapshot (0 = the source transaction's); it
	// cannot be combined with a From/To window. For SecondaryJoin it
	// pins the index lookup time.
	At record.Timestamp
	// From/To: Scan window mode, History clamp, or Diff endpoints
	// (From=T1, To=T2).
	From, To record.Timestamp
	// Key is History's record key.
	Key record.Key
	// Reverse yields descending keys (descending (key, time) in window
	// mode, descending time in History). Sources only.
	Reverse bool
	// Parallel runs a Scan with one goroutine per shard feeding an
	// ordered merge. Sources only; ignored without a ShardedSource.
	Parallel bool

	// Filter predicate: an optional key range (pushed down into a
	// Scan/Diff input's window at compile time) and an optional value
	// prefix every row's first version must carry.
	HasKeyRange bool
	FilterLow   record.Key
	FilterHigh  record.Bound
	ValuePrefix []byte
	// Where is an arbitrary local predicate. It does not serialize:
	// wire specs must express filters with the fields above.
	Where func(Row) bool

	// KeysOnly makes Project strip version values.
	KeysOnly bool

	// Index/SKey name the secondary lookup of a SecondaryJoin.
	Index string
	SKey  record.Key

	// Limit bounds the row count of an OpLimit node.
	Limit uint64

	Input *Spec // unary transforms
	Left  *Spec // MergeJoin
	Right *Spec
}

// Scan returns a snapshot scan of keys in [low, high) at the executing
// transaction's timestamp. Set At to pin another snapshot, From/To for
// window mode, Reverse or Parallel to direct execution.
func Scan(low record.Key, high record.Bound) *Spec {
	return &Spec{Kind: OpScan, Low: low, High: high}
}

// Window returns a temporal range scan: the versions of [low, high)
// valid at any moment in [from, to), in (key, time) order.
func Window(low record.Key, high record.Bound, from, to record.Timestamp) *Spec {
	return &Spec{Kind: OpScan, Low: low, High: high, From: from, To: to}
}

// History returns the version-cursor over one key's committed history,
// oldest first (newest first with Reverse). From/To clamp the window;
// zero values mean all of time.
func History(key record.Key) *Spec {
	return &Spec{Kind: OpHistory, Key: key}
}

// Diff returns the change-cursor between two times: one row per key in
// [low, high) whose visible state differs between t1 and t2, with the
// before/after versions attached — core.Tree.Diff as a stream.
func Diff(low record.Key, high record.Bound, t1, t2 record.Timestamp) *Spec {
	return &Spec{Kind: OpDiff, Low: low, High: high, From: t1, To: t2}
}

// Filter restricts the stream to keys in [low, high). Over a Scan or
// Diff source the range is pushed down into the source's window, so
// the underlying cursor never visits a page outside it.
func (s *Spec) Filter(low record.Key, high record.Bound) *Spec {
	return &Spec{Kind: OpFilter, HasKeyRange: true, FilterLow: low, FilterHigh: high, Input: s}
}

// FilterValuePrefix restricts the stream to rows whose first version's
// value starts with prefix (a streamed predicate; nothing is pushed
// down).
func (s *Spec) FilterValuePrefix(prefix []byte) *Spec {
	return &Spec{Kind: OpFilter, ValuePrefix: prefix, Input: s}
}

// FilterWhere restricts the stream with an arbitrary predicate. The
// resulting spec cannot travel over the wire.
func (s *Spec) FilterWhere(fn func(Row) bool) *Spec {
	return &Spec{Kind: OpFilter, Where: fn, Input: s}
}

// Project strips version values from the stream (keys and timestamps
// survive).
func (s *Spec) Project() *Spec {
	return &Spec{Kind: OpProject, KeysOnly: true, Input: s}
}

// Join merge-joins the stream with right on key equality. Both inputs
// must run in the same direction; matching key groups combine as one
// row per left×right version pair grouping (left versions first).
func (s *Spec) Join(right *Spec) *Spec {
	return &Spec{Kind: OpMergeJoin, Left: s, Right: right}
}

// JoinSecondary semi-joins the stream against a secondary-index lookup:
// only rows whose key carries skey in the named index (at time at, 0 =
// the transaction's snapshot) survive. Over a plain Scan it compiles to
// one point cursor per looked-up key; over any other input it merges
// the key list against the stream.
func (s *Spec) JoinSecondary(index string, skey record.Key, at record.Timestamp) *Spec {
	return &Spec{Kind: OpSecondaryJoin, Index: index, SKey: skey, At: at, Input: s}
}

// GroupBy aggregates consecutive rows of one key — a key's version
// history — into a single row carrying the version count and the
// group's first and last version.
func (s *Spec) GroupBy() *Spec {
	return &Spec{Kind: OpGroupBy, Input: s}
}

// WithLimit bounds the stream to the first n rows.
func (s *Spec) WithLimit(n uint64) *Spec {
	return &Spec{Kind: OpLimit, Limit: n, Input: s}
}

func badSpec(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadSpec, fmt.Sprintf(format, args...))
}

// Validate checks the tree's structure: kinds, child arity, field
// combinations, depth, and size. Every failure wraps ErrBadSpec.
func (s *Spec) Validate() error {
	nodes := 0
	var walk func(s *Spec, depth int) error
	walk = func(s *Spec, depth int) error {
		if s == nil {
			return badSpec("nil node")
		}
		if depth > MaxSpecDepth {
			return badSpec("tree deeper than %d", MaxSpecDepth)
		}
		if nodes++; nodes > MaxSpecNodes {
			return badSpec("tree larger than %d nodes", MaxSpecNodes)
		}
		leaf := s.Input == nil && s.Left == nil && s.Right == nil
		switch s.Kind {
		case OpScan:
			if !leaf {
				return badSpec("scan with inputs")
			}
			if s.At != 0 && (s.From != 0 || s.To != 0) {
				return badSpec("scan At combined with From/To")
			}
		case OpHistory:
			if !leaf {
				return badSpec("history with inputs")
			}
			if len(s.Key) == 0 {
				return badSpec("history without a key")
			}
		case OpDiff:
			if !leaf {
				return badSpec("diff with inputs")
			}
			if s.To >= record.TimePending {
				return badSpec("diff To out of range")
			}
		case OpFilter:
			if !s.HasKeyRange && s.ValuePrefix == nil && s.Where == nil {
				return badSpec("filter without a predicate")
			}
		case OpProject, OpGroupBy:
		case OpLimit:
			if s.Limit == 0 {
				return badSpec("limit 0")
			}
		case OpSecondaryJoin:
			if s.Index == "" {
				return badSpec("secondary join without an index name")
			}
		case OpMergeJoin:
			if s.Left == nil || s.Right == nil {
				return badSpec("merge join needs two inputs")
			}
			if s.Left.direction() != s.Right.direction() {
				return badSpec("merge join inputs run in different directions")
			}
			if err := walk(s.Left, depth+1); err != nil {
				return err
			}
			return walk(s.Right, depth+1)
		default:
			return badSpec("unknown operator kind %d", s.Kind)
		}
		if s.Kind != OpScan && s.Kind != OpHistory && s.Kind != OpDiff {
			if s.Input == nil {
				return badSpec("%v without an input", s.Kind)
			}
			return walk(s.Input, depth+1)
		}
		return nil
	}
	return walk(s, 1)
}

// direction reports whether the stream the spec produces runs in
// descending key order.
func (s *Spec) direction() bool {
	switch {
	case s == nil:
		return false
	case s.Input != nil:
		return s.Input.direction()
	case s.Left != nil:
		return s.Left.direction()
	default:
		return s.Reverse
	}
}

func (k OpKind) String() string {
	switch k {
	case OpScan:
		return "scan"
	case OpHistory:
		return "history"
	case OpDiff:
		return "diff"
	case OpFilter:
		return "filter"
	case OpProject:
		return "project"
	case OpMergeJoin:
		return "merge-join"
	case OpSecondaryJoin:
		return "secondary-join"
	case OpGroupBy:
		return "group-by"
	case OpLimit:
		return "limit"
	}
	return fmt.Sprintf("op(%d)", byte(k))
}
