package query

import (
	"slices"

	"repro/internal/record"
	"repro/internal/txn"
)

// Compile validates the spec, applies the pushdown rewrites, and builds
// the operator pipeline over src. The returned Operator owns every
// cursor and goroutine the plan needs; Close releases them.
func Compile(s *Spec, src Source) (Operator, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return compile(pushdown(s), src)
}

// pushdown rewrites the tree so that key-range filters narrow the scan
// window of a Scan or Diff source they sit directly above: the cursor
// then never descends to a page outside the range — the predicate runs
// at page-selection time, not per row. The input specs are never
// mutated; rewritten nodes are shallow clones.
func pushdown(s *Spec) *Spec {
	switch {
	case s == nil:
		return nil
	case s.Left != nil || s.Right != nil:
		c := *s
		c.Left, c.Right = pushdown(s.Left), pushdown(s.Right)
		return &c
	case s.Input == nil:
		return s
	}
	c := *s
	c.Input = pushdown(s.Input)
	in := c.Input
	if c.Kind == OpFilter && c.HasKeyRange && (in.Kind == OpScan || in.Kind == OpDiff) {
		srcClone := *in
		if c.FilterLow != nil && c.FilterLow.Compare(srcClone.Low) > 0 {
			srcClone.Low = c.FilterLow
		}
		if c.FilterHigh.Compare(srcClone.High) < 0 {
			srcClone.High = c.FilterHigh
		}
		c.HasKeyRange, c.FilterLow, c.FilterHigh = false, nil, record.Bound{}
		c.Input = &srcClone
		if c.ValuePrefix == nil && c.Where == nil {
			// Fully absorbed: drop the filter node.
			return &srcClone
		}
	}
	return &c
}

func compile(s *Spec, src Source) (Operator, error) {
	switch s.Kind {
	case OpScan:
		return compileScan(s, src)
	case OpHistory:
		from, to := s.From, s.To
		if from == 0 {
			from = record.TimeZero + 1
		}
		if to == 0 {
			to = record.TimeInfinity
		}
		cur := src.Cursor(s.Key, justAfter(s.Key), txn.ScanOptions{From: from, To: to, Reverse: s.Reverse})
		return &cursorOp{cur: cur}, nil
	case OpDiff:
		if s.To <= s.From {
			return &emptyOp{}, nil
		}
		// Every version valid at some moment in (From, To] is in the
		// window [From, To+1) — the streaming form of core.Tree.Diff.
		cur := src.Cursor(s.Low, s.High, txn.ScanOptions{From: s.From, To: s.To + 1, Reverse: s.Reverse})
		return &diffOp{in: &cursorOp{cur: cur}, from: s.From, to: s.To}, nil
	case OpFilter:
		in, err := compile(s.Input, src)
		if err != nil {
			return nil, err
		}
		return &filterOp{in: in, spec: s}, nil
	case OpProject:
		in, err := compile(s.Input, src)
		if err != nil {
			return nil, err
		}
		return &projectOp{in: in}, nil
	case OpGroupBy:
		in, err := compile(s.Input, src)
		if err != nil {
			return nil, err
		}
		return &groupByOp{in: in}, nil
	case OpLimit:
		in, err := compile(s.Input, src)
		if err != nil {
			return nil, err
		}
		return &limitOp{in: in, remaining: s.Limit}, nil
	case OpMergeJoin:
		left, err := compile(s.Left, src)
		if err != nil {
			return nil, err
		}
		right, err := compile(s.Right, src)
		if err != nil {
			left.Close()
			return nil, err
		}
		return newMergeJoin(left, right, s.Left.direction()), nil
	case OpSecondaryJoin:
		lk, ok := src.(SecondaryLookup)
		if !ok {
			return nil, badSpec("source %T has no secondary indexes", src)
		}
		at := s.At
		if at == 0 {
			at = src.Timestamp()
		}
		pks, err := lk.LookupSecondary(s.Index, s.SKey, at)
		if err != nil {
			return nil, err
		}
		if s.Input.Kind == OpScan {
			if s.Input.Reverse {
				slices.Reverse(pks)
			}
			return &probeOp{src: src, scan: s.Input, keys: slices.CompactFunc(pks, record.Key.Equal)}, nil
		}
		in, err := compile(s.Input, src)
		if err != nil {
			return nil, err
		}
		return newSemiJoin(in, pks, s.Input.direction()), nil
	}
	return nil, badSpec("unknown operator kind %d", s.Kind)
}

// justAfter is the exclusive upper bound of the one-key range [k, k+0x00).
func justAfter(k record.Key) record.Bound { return record.KeyBound(append(k.Clone(), 0)) }

// compileScan builds a Scan source: a serial cursor, or — Parallel over
// a ShardedSource — one cursor goroutine per shard feeding an ordered
// merge.
func compileScan(s *Spec, src Source) (Operator, error) {
	opts := txn.ScanOptions{At: s.At, From: s.From, To: s.To, Reverse: s.Reverse}
	if s.Parallel {
		if sh, ok := src.(ShardedSource); ok && sh.Shards() > 1 {
			return newParallelScan(src, sh.Shards(), s.Low, s.High, opts), nil
		}
	}
	return &cursorOp{cur: src.Cursor(s.Low, s.High, opts)}, nil
}
