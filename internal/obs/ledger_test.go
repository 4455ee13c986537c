package obs

import (
	"fmt"
	"math"
	"testing"
)

func TestNilSummaryBriefIsNil(t *testing.T) {
	var s *LedgerSummary
	if b := s.Brief(); b != nil {
		t.Fatalf("nil summary Brief = %+v, want nil", b)
	}
}

func TestLedgerSequencingAndTotals(t *testing.T) {
	l := NewLedger(0)
	if seq := l.Record(LedgerAttempt{Outcome: LedgerApplied, PredictedGain: 2, RealizedGain: 1.5}); seq != 1 {
		t.Fatalf("first seq = %d, want 1", seq)
	}
	if seq := l.Record(LedgerAttempt{Outcome: LedgerRejected, Reason: "delay"}); seq != 2 {
		t.Fatalf("second seq = %d, want 2", seq)
	}
	l.Record(LedgerAttempt{Outcome: LedgerApplied, PredictedGain: 1, RealizedGain: 0.5})
	l.CountReject("stale")
	l.CountReject("stale")

	s := l.Summary()
	if s.Attempts != 3 {
		t.Errorf("Attempts = %d, want 3 (count-only rejects excluded)", s.Attempts)
	}
	if s.Applied != 2 || len(s.Moves) != 2 {
		t.Errorf("Applied = %d, Moves = %d, want 2/2", s.Applied, len(s.Moves))
	}
	if s.PredictedGain != 3 || s.RealizedGain != 2 {
		t.Errorf("totals predicted %v realized %v, want 3/2", s.PredictedGain, s.RealizedGain)
	}
	if s.Rejected["delay"] != 1 || s.Rejected["stale"] != 2 {
		t.Errorf("Rejected = %v", s.Rejected)
	}
	if len(s.Rejects) != 1 || s.Rejects[0].Reason != "delay" {
		t.Errorf("reject entries = %+v, want one delay entry", s.Rejects)
	}
}

// TestLedgerBoundsKeepTotalsExact pins the retention policy: applied
// entries keep the earliest moves, rejected entries ring-buffer the
// latest, and the exact totals survive both.
func TestLedgerBoundsKeepTotalsExact(t *testing.T) {
	l := NewLedger(3)
	for i := 0; i < 10; i++ {
		l.Record(LedgerAttempt{Outcome: LedgerApplied, PredictedGain: 1, RealizedGain: 2})
	}
	for i := 0; i < 10; i++ {
		l.Record(LedgerAttempt{Outcome: LedgerRejected, Reason: fmt.Sprintf("r%d", i)})
	}
	s := l.Summary()
	if s.Applied != 10 {
		t.Errorf("Applied = %d, want 10", s.Applied)
	}
	if len(s.Moves) != 3 || s.DroppedMoves != 7 {
		t.Errorf("Moves = %d dropped = %d, want 3/7", len(s.Moves), s.DroppedMoves)
	}
	if s.RealizedGain != 20 || s.PredictedGain != 10 {
		t.Errorf("totals %v/%v, want 10/20", s.PredictedGain, s.RealizedGain)
	}
	// The reject ring keeps the newest entries in record order.
	if len(s.Rejects) != 3 || s.DroppedRejects != 7 {
		t.Fatalf("Rejects = %d dropped = %d, want 3/7", len(s.Rejects), s.DroppedRejects)
	}
	for i, want := range []string{"r7", "r8", "r9"} {
		if s.Rejects[i].Reason != want {
			t.Errorf("Rejects[%d].Reason = %q, want %q", i, s.Rejects[i].Reason, want)
		}
	}
	total := 0
	for _, n := range s.Rejected {
		total += n
	}
	if total != 10 {
		t.Errorf("Rejected counts sum to %d, want 10", total)
	}
}

// TestLedgerSeparateRings pins the flood-isolation property: a reject
// flood cannot evict the attribution table.
func TestLedgerSeparateRings(t *testing.T) {
	l := NewLedger(4)
	l.Record(LedgerAttempt{Outcome: LedgerApplied, RealizedGain: 1})
	for i := 0; i < 1000; i++ {
		l.Record(LedgerAttempt{Outcome: LedgerRejected, Reason: "refuted"})
	}
	s := l.Summary()
	if len(s.Moves) != 1 || s.DroppedMoves != 0 {
		t.Fatalf("reject flood evicted applied entries: moves=%d dropped=%d", len(s.Moves), s.DroppedMoves)
	}
}

func TestLedgerByNodeAttribution(t *testing.T) {
	l := NewLedger(0)
	l.Record(LedgerAttempt{
		Outcome: LedgerApplied, RealizedGain: 3,
		Cone: []LedgerNodeDelta{{Node: "a", Delta: 2}, {Node: "b", Delta: 1}},
	})
	l.Record(LedgerAttempt{
		Outcome: LedgerApplied, RealizedGain: 1,
		Cone: []LedgerNodeDelta{{Node: "b", Delta: 4}, {Node: "c", Delta: -3}},
	})
	s := l.Summary()
	if len(s.ByNode) != 3 {
		t.Fatalf("ByNode = %+v, want 3 nodes", s.ByNode)
	}
	// Sorted by realized gain descending: b(5), a(2), c(-3).
	want := []LedgerNodeAttribution{
		{Node: "b", Moves: 2, Realized: 5},
		{Node: "a", Moves: 1, Realized: 2},
		{Node: "c", Moves: 1, Realized: -3},
	}
	for i, w := range want {
		if s.ByNode[i] != w {
			t.Errorf("ByNode[%d] = %+v, want %+v", i, s.ByNode[i], w)
		}
	}
	// Node table decomposes the same total as the moves.
	var nodeSum float64
	for _, a := range s.ByNode {
		nodeSum += a.Realized
	}
	if math.Abs(nodeSum-s.RealizedGain) > 1e-12 {
		t.Errorf("node attribution sums to %v, realized %v", nodeSum, s.RealizedGain)
	}
}

func TestLedgerBriefStripsEntries(t *testing.T) {
	l := NewLedger(0)
	l.Record(LedgerAttempt{Outcome: LedgerApplied, RealizedGain: 1,
		Cone: []LedgerNodeDelta{{Node: "a", Delta: 1}}})
	b := l.Summary().Brief()
	if b.Moves != nil || b.Rejects != nil || b.ByNode != nil {
		t.Errorf("Brief kept entry slices: %+v", b)
	}
	if b.Applied != 1 || b.RealizedGain != 1 {
		t.Errorf("Brief lost totals: %+v", b)
	}
}
