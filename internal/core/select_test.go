package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"powder/internal/transform"
)

// TestPartialSelectByGainAB checks the selection property: after the call,
// the front k elements are exactly the k largest GainAB values of the
// whole slice (in descending order), and no element is lost.
func TestPartialSelectByGainAB(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		k := rng.Intn(n + 1)
		cands := make([]*transform.Substitution, n)
		want := make([]float64, n)
		for i := range cands {
			// Duplicates included on purpose: ties must not drop elements.
			g := float64(rng.Intn(10)) / 4
			cands[i] = &transform.Substitution{GainAB: g}
			want[i] = g
		}

		new(pool).partialSelectByGainAB(cands, k)

		got := make([]float64, n)
		for i, s := range cands {
			got[i] = s.GainAB
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(want)))
		for i := 0; i < k; i++ {
			if got[i] != want[i] {
				t.Fatalf("n=%d k=%d: position %d has gain %v, want %v (got %v)",
					n, k, i, got[i], want[i], got)
			}
		}
		// The tail still holds the remaining elements (multiset equality).
		sort.Float64s(got)
		wantAsc := append([]float64(nil), want...)
		sort.Float64s(wantAsc)
		for i := range got {
			if got[i] != wantAsc[i] {
				t.Fatalf("n=%d k=%d: elements lost: got %v want %v", n, k, got, wantAsc)
			}
		}
	}
}

// selectionSortGainAB is the preselection partialSelectByGainAB
// replaced: k steps of selection sort by GainAB. It is the reference
// for the whole permuted slice.
func selectionSortGainAB(cands []*transform.Substitution, k int) {
	for i := 0; i < k; i++ {
		maxJ := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].GainAB > cands[maxJ].GainAB {
				maxJ = j
			}
		}
		cands[i], cands[maxJ] = cands[maxJ], cands[i]
	}
}

// TestPartialSelectMatchesSelectionSort checks that the whole slice, not
// only its first k entries, ends in the order k steps of selection sort
// leave it in: later picks break gain ties by position. The lists hold
// many equal finite gains, and for every k from 0 to the list length;
// some also hold infinities and NaNs.
func TestPartialSelectMatchesSelectionSort(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(60)
		levels := 1 + rng.Intn(6)
		gains := make([]float64, n)
		for i := range gains {
			gains[i] = float64(rng.Intn(levels)-levels/2) / 8
			if trial%3 == 0 && rng.Intn(8) == 0 {
				gains[i] = specials[rng.Intn(len(specials))]
			}
		}
		for k := 0; k <= n; k++ {
			got := make([]*transform.Substitution, n)
			want := make([]*transform.Substitution, n)
			for i, g := range gains {
				got[i] = &transform.Substitution{GainAB: g}
				want[i] = got[i]
			}
			new(pool).partialSelectByGainAB(got, k)
			selectionSortGainAB(want, k)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d n=%d k=%d: position %d holds a candidate of gain %v, selection sort puts one of gain %v there",
						trial, n, k, i, got[i].GainAB, want[i].GainAB)
				}
			}
		}
	}
}

func TestPartialSelectByGainABEmpty(t *testing.T) {
	var p pool
	p.partialSelectByGainAB(nil, 0) // must not panic
	one := []*transform.Substitution{{GainAB: 1}}
	p.partialSelectByGainAB(one, 1)
	if one[0].GainAB != 1 {
		t.Fatal("single-element slice mangled")
	}
}

// TestResultPctZeroInitial pins the degenerate-circuit edge case: with a
// zero initial power or area the percentages are 0, not NaN/Inf.
func TestResultPctZeroInitial(t *testing.T) {
	var r Result
	if got := r.PowerReductionPct(); got != 0 {
		t.Errorf("PowerReductionPct on zero initial = %v, want 0", got)
	}
	if got := r.AreaChangePct(); got != 0 {
		t.Errorf("AreaChangePct on zero initial = %v, want 0", got)
	}
	r.Final.Power = 5
	r.Final.Area = 100
	if got := r.PowerReductionPct(); got != 0 {
		t.Errorf("PowerReductionPct with final-only power = %v, want 0", got)
	}
	if got := r.AreaChangePct(); got != 0 {
		t.Errorf("AreaChangePct with final-only area = %v, want 0", got)
	}

	r.Initial.Power, r.Final.Power = 10, 5
	r.Initial.Area, r.Final.Area = 200, 100
	if got := r.PowerReductionPct(); got != 50 {
		t.Errorf("PowerReductionPct = %v, want 50", got)
	}
	if got := r.AreaChangePct(); got != -50 {
		t.Errorf("AreaChangePct = %v, want -50", got)
	}
}
