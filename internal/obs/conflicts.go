package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// ConflictLedger attributes parallel-engine commit conflicts: every
// time the master rejects or re-proves a proposal because two regions
// touched the same structure, the engine records which region pair
// collided, over which node, and how (the conflict kind). The ledger is
// bounded like the run ledger — a fixed number of distinct (pair, node)
// cells; once full, new cells are dropped and counted while existing
// cells keep accumulating — so a pathological run cannot grow it
// without bound.
//
// Kinds mirror the engine's conflict taxonomy: "touched" (support node
// rewritten by an earlier commit from another region), "shared"
// (boundary node both regions see), "stale" (support node deleted),
// "broken-chain" (an earlier proposal of the same region failed,
// invalidating the replica state downstream proposals were built on).
type ConflictLedger struct {
	mu      sync.Mutex
	limit   int
	cells   map[conflictKey]*conflictCell
	byKind  map[string]int64
	total   int64
	dropped int64
}

// conflictKey identifies one heatmap cell: the colliding region pair
// (A <= B; 0 = the master/serial side) and the node fought over.
type conflictKey struct {
	regionA, regionB int
	node             string
}

type conflictCell struct {
	count int64
	kinds map[string]int64
}

// NewConflictLedger returns a ledger bounded to limit distinct cells
// (<= 0 chooses 1024).
func NewConflictLedger(limit int) *ConflictLedger {
	if limit <= 0 {
		limit = 1024
	}
	return &ConflictLedger{
		limit:  limit,
		cells:  make(map[conflictKey]*conflictCell),
		byKind: make(map[string]int64),
	}
}

// Record notes one conflict between two regions over a node. The pair
// is unordered (Record(1,3,...) and Record(3,1,...) hit the same cell);
// region 0 stands for the master/serial side when the other party is
// unknown.
func (l *ConflictLedger) Record(regionA, regionB int, node, kind string) {
	if regionA > regionB {
		regionA, regionB = regionB, regionA
	}
	key := conflictKey{regionA, regionB, node}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	l.byKind[kind]++
	cell := l.cells[key]
	if cell == nil {
		if len(l.cells) >= l.limit {
			l.dropped++
			return
		}
		cell = &conflictCell{kinds: make(map[string]int64, 2)}
		l.cells[key] = cell
	}
	cell.count++
	cell.kinds[kind]++
}

// ConflictCell is one exported heatmap cell.
type ConflictCell struct {
	RegionA int              `json:"region_a"`
	RegionB int              `json:"region_b"`
	Node    string           `json:"node"`
	Count   int64            `json:"count"`
	Kinds   map[string]int64 `json:"kinds"`
}

// ConflictSummary is the exported aggregate: totals per kind plus the
// cells sorted hottest-first (ties broken by region pair then node, so
// the order is deterministic).
type ConflictSummary struct {
	Total        int64            `json:"total"`
	ByKind       map[string]int64 `json:"by_kind,omitempty"`
	Cells        []ConflictCell   `json:"cells,omitempty"`
	DroppedCells int64            `json:"dropped_cells,omitempty"`
}

// Summary snapshots the ledger.
func (l *ConflictLedger) Summary() ConflictSummary {
	var s ConflictSummary
	l.mu.Lock()
	defer l.mu.Unlock()
	s.Total = l.total
	s.DroppedCells = l.dropped
	if len(l.byKind) > 0 {
		s.ByKind = make(map[string]int64, len(l.byKind))
		for k, v := range l.byKind {
			s.ByKind[k] = v
		}
	}
	for key, cell := range l.cells {
		kinds := make(map[string]int64, len(cell.kinds))
		for k, v := range cell.kinds {
			kinds[k] = v
		}
		s.Cells = append(s.Cells, ConflictCell{
			RegionA: key.regionA, RegionB: key.regionB,
			Node: key.node, Count: cell.count, Kinds: kinds,
		})
	}
	sort.Slice(s.Cells, func(i, j int) bool {
		a, b := s.Cells[i], s.Cells[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		if a.RegionA != b.RegionA {
			return a.RegionA < b.RegionA
		}
		if a.RegionB != b.RegionB {
			return a.RegionB < b.RegionB
		}
		return a.Node < b.Node
	})
	return s
}

// WriteText renders the summary as an aligned heatmap table, hottest
// cells first, capped at top rows (<= 0: all).
func (s ConflictSummary) WriteText(w io.Writer, top int) {
	if s.Total == 0 {
		fmt.Fprintln(w, "no conflicts recorded")
		return
	}
	kinds := make([]string, 0, len(s.ByKind))
	for k := range s.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(w, "total %d", s.Total)
	for _, k := range kinds {
		fmt.Fprintf(w, "  %s=%d", k, s.ByKind[k])
	}
	fmt.Fprintln(w)
	cells := s.Cells
	if top > 0 && len(cells) > top {
		cells = cells[:top]
	}
	for _, c := range cells {
		ck := make([]string, 0, len(c.Kinds))
		for k := range c.Kinds {
			ck = append(ck, k)
		}
		sort.Strings(ck)
		fmt.Fprintf(w, "  r%d-r%d %-20s %6d", c.RegionA, c.RegionB, c.Node, c.Count)
		for _, k := range ck {
			fmt.Fprintf(w, "  %s=%d", k, c.Kinds[k])
		}
		fmt.Fprintln(w)
	}
	if s.DroppedCells > 0 {
		fmt.Fprintf(w, "  (+%d conflicts in cells beyond the ledger bound)\n", s.DroppedCells)
	}
}
