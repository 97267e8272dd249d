package core

import (
	"fmt"
	"strings"

	"repro/internal/storage"
)

// LevelStats summarizes one level of the tree (level 0 = leaves).
type LevelStats struct {
	Level           int
	CurrentNodes    int
	HistoricalNodes int
	CurrentBytes    int
	HistoricalBytes int
	Versions        int // leaf levels
	Entries         int // index levels
	// AvgCurrentFill is current node bytes / leaf-or-index capacity.
	AvgCurrentFill float64
}

// Analysis is a structural profile of the whole tree.
type Analysis struct {
	Levels []LevelStats // index 0 = leaf level
	// SharedHistorical counts historical nodes reachable through more
	// than one parent (the DAG measure).
	SharedHistorical int
}

// Analyze walks the tree and produces a per-level structural profile —
// the inspection behind cmd/tsbdump's fill-factor report.
func (t *Tree) Analyze() (Analysis, error) {
	parents := make(map[storage.Addr]int)
	type job struct {
		addr  storage.Addr
		depth int
	}
	visited := make(map[storage.Addr]int) // addr -> depth from root
	var maxDepth int
	queue := []job{{addr: t.root, depth: 0}}
	levelOf := make(map[storage.Addr]int)
	for len(queue) > 0 {
		j := queue[0]
		queue = queue[1:]
		if d, seen := visited[j.addr]; seen {
			if j.depth > d {
				// Keep the first (shallowest) depth; shared
				// historical nodes may be reachable at several.
			}
			continue
		}
		visited[j.addr] = j.depth
		levelOf[j.addr] = j.depth
		if j.depth > maxDepth {
			maxDepth = j.depth
		}
		n, err := t.readNode(j.addr)
		if err != nil {
			return Analysis{}, err
		}
		for _, e := range n.entries {
			parents[e.child]++
			queue = append(queue, job{addr: e.child, depth: j.depth + 1})
		}
	}

	// Depth counts from the root; convert to level (0 = leaves) using
	// the tree height so all leaves land on level 0 even when old roots
	// sit at odd depths.
	height := t.stats.Height
	levels := make([]LevelStats, height)
	for i := range levels {
		levels[i].Level = i
	}
	shared := 0
	for addr := range visited {
		n, err := t.readNode(addr)
		if err != nil {
			return Analysis{}, err
		}
		lvl := height - 1 - levelOf[addr]
		if n.leaf {
			lvl = 0
		}
		if lvl < 0 {
			lvl = 0
		}
		if lvl >= height {
			lvl = height - 1
		}
		ls := &levels[lvl]
		size := n.size()
		if addr.IsWORM() {
			ls.HistoricalNodes++
			ls.HistoricalBytes += size
		} else {
			ls.CurrentNodes++
			ls.CurrentBytes += size
		}
		ls.Versions += len(n.versions)
		ls.Entries += len(n.entries)
		if addr.IsWORM() && parents[addr] > 1 {
			shared++
		}
	}
	for i := range levels {
		cap := t.cfg.IndexCapacity
		if i == 0 {
			cap = t.cfg.LeafCapacity
		}
		if levels[i].CurrentNodes > 0 && cap > 0 {
			levels[i].AvgCurrentFill = float64(levels[i].CurrentBytes) /
				float64(levels[i].CurrentNodes*cap)
		}
	}
	return Analysis{Levels: levels, SharedHistorical: shared}, nil
}

// String renders the analysis as a small table.
func (a Analysis) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "level  cur-nodes  hist-nodes  cur-fill  versions  entries\n")
	for i := len(a.Levels) - 1; i >= 0; i-- {
		l := a.Levels[i]
		fmt.Fprintf(&b, "%-6d %-10d %-11d %-9.2f %-9d %d\n",
			l.Level, l.CurrentNodes, l.HistoricalNodes, l.AvgCurrentFill, l.Versions, l.Entries)
	}
	fmt.Fprintf(&b, "historical nodes with multiple parents (DAG): %d\n", a.SharedHistorical)
	return b.String()
}
