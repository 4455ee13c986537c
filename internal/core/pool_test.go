package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"powder/internal/transform"
)

// poolGains are the gains the pool tests draw from: few levels, so that
// ties abound, and the infinities and NaN.
var poolGains = []float64{-0.5, 0, 0.25, 0.25, 0.5, 1, math.Inf(1), math.Inf(-1), math.NaN()}

// gainsOf renders a sequence's gains for a failure message.
func gainsOf(seq []*transform.Substitution) []float64 {
	g := make([]float64, len(seq))
	for i, s := range seq {
		g[i] = s.GainAB
	}
	return g
}

// seqDiff describes where two sequences first part: candidates of equal
// gain differ by identity alone.
func seqDiff(got, want []*transform.Substitution) string {
	i := 0
	for i < min(len(got), len(want)) && got[i] == want[i] {
		i++
	}
	lo := max(i-3, 0)
	return fmt.Sprintf("position %d of %d/%d first differs; gains from position %d: %v, want %v",
		i, len(got), len(want), lo, gainsOf(got[lo:min(len(got), i+4)]), gainsOf(want[lo:min(len(want), i+4)]))
}

// checkPoolOps drives a pool through the ops data encodes, beside a
// reference: a plain slice that every pick sorts k steps by selection
// sort and that drops a removed pick by append, the per-pick preselection
// the pool replaced. After every op the pool's whole sequence must equal
// the reference. The ops keep the engine's protocol: a removal follows a
// pick, and gains move only at a refresh, which drops candidates in place
// and loads the pool with the ones it keeps.
//
// data holds the pool size, two bytes choosing k (1 to one past the size,
// or math.MaxInt), a gain per candidate, then the ops.
func checkPoolOps(t *testing.T, data []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := next()
	k := 1 + next()%(n+2)
	if next()%4 == 0 {
		k = math.MaxInt
	}
	cands := make([]*transform.Substitution, n)
	for i := range cands {
		cands[i] = &transform.Substitution{GainAB: poolGains[next()%len(poolGains)]}
	}
	p := &pool{k: k}
	p.load(cands)
	ref := slices.Clone(cands)
	picked := false
	for op := 0; len(data) > 0; op++ {
		var what string
		switch b := next(); {
		case b%8 == 7:
			seq := p.seq()
			drop := map[*transform.Substitution]bool{}
			for range next() % 8 {
				if len(seq) == 0 {
					break
				}
				s, c := seq[next()%len(seq)], next()
				if c%2 == 0 {
					drop[s] = true
				} else {
					s.GainAB = poolGains[c/2%len(poolGains)]
				}
			}
			kept := seq[:0]
			for _, s := range seq {
				if !drop[s] {
					kept = append(kept, s)
				}
			}
			p.load(kept)
			ref = append(ref[:0], kept...)
			picked, what = false, fmt.Sprintf("refresh dropping %d", len(drop))
		case b%2 == 1 && picked && len(ref) > 0:
			i := next() % min(k, len(ref))
			p.remove(i)
			ref = append(ref[:i], ref[i+1:]...)
			picked, what = false, fmt.Sprintf("remove top[%d]", i)
		default:
			top := p.pick()
			kk := min(k, len(ref))
			selectionSortGainAB(ref, kk)
			if !slices.Equal(top, ref[:kk]) {
				t.Fatalf("op %d (n %d, k %d): the pick's top is not selection sort's: %s", op, n, k, seqDiff(top, ref[:kk]))
			}
			picked, what = true, "pick"
		}
		if got := p.seq(); !slices.Equal(got, ref) {
			t.Fatalf("op %d, %s (n %d, k %d): the pool is not the reference: %s", op, what, n, k, seqDiff(got, ref))
		}
	}
}

// TestPoolMatchesSelectionSort drives pools of up to 255 candidates
// through random op sequences, k from 1 to past the pool size.
func TestPoolMatchesSelectionSort(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(40)
		if trial%3 == 0 {
			n = rng.Intn(256)
		}
		data := []byte{byte(n), byte(rng.Intn(256)), byte(rng.Intn(256))}
		for range n {
			data = append(data, byte(rng.Intn(len(poolGains))))
		}
		for range 200 {
			data = append(data, byte(rng.Intn(256)))
		}
		checkPoolOps(t, data)
	}
}

func FuzzPool(f *testing.F) {
	f.Add([]byte{12, 2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 2, 3, 1, 0, 1, 3, 0, 1, 1, 0, 1, 5, 0, 7, 3, 4, 0, 0, 1, 2, 0, 1, 2, 1})
	f.Add([]byte{9, 0, 1, 8, 8, 3, 8, 3, 8, 8, 3, 8, 0, 1, 0, 0, 1, 1, 0, 1, 2, 0, 7, 2, 0, 3, 1, 0, 0, 1, 0})
	f.Add([]byte{20, 7, 0, 1, 1, 1, 1, 2, 2, 3, 3, 1, 1, 2, 2, 3, 3, 1, 1, 2, 2, 3, 3, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 2, 0, 1, 4})
	f.Add([]byte{5, 255, 0, 6, 7, 8, 6, 7, 0, 1, 0, 1, 0, 7, 1, 1, 0, 0, 1, 0, 1})
	f.Fuzz(checkPoolOps)
}

// shadowPool is the per-pick selection one pool replaced, run beside it.
type shadowPool struct {
	seq []*transform.Substitution
	sel pool // scratch of its partialSelectByGainAB
}

// TestPoolMatchesPerPickSelection runs, beside every pool of the
// exactness runs, a shadow slice under the per-pick selection the pool
// replaced: a load replaces the shadow, every pick selects its k steps of
// selection sort by GainAB with partialSelectByGainAB (which
// TestPartialSelectMatchesSelectionSort pins to selection sort), and a
// removal drops the pick by append. After every pick and every removal
// the pool's whole sequence must equal the shadow.
func TestPoolMatchesPerPickSelection(t *testing.T) {
	var (
		mu      sync.Mutex
		shadows = map[*pool]*shadowPool{}
	)
	var picks, removals, failures atomic.Int64
	selectCheck = func(p *pool, op poolOp, i int) {
		mu.Lock()
		sh := shadows[p]
		if sh == nil {
			sh = new(shadowPool)
			shadows[p] = sh
		}
		mu.Unlock()
		switch op {
		case poolLoad:
			sh.seq = append(sh.seq[:0], p.seq()...)
			return
		case poolPick:
			sh.sel.partialSelectByGainAB(sh.seq, p.k)
			picks.Add(1)
		case poolRemove:
			sh.seq = append(sh.seq[:i], sh.seq[i+1:]...)
			removals.Add(1)
		}
		if got := p.seq(); !slices.Equal(got, sh.seq) && failures.Add(1) <= 10 {
			t.Errorf("after a %s (k %d) the pool is not the per-pick selection: %s",
				[]string{"load", "pick", "removal"}[op], p.k, seqDiff(got, sh.seq))
		}
	}
	defer func() { selectCheck = nil }()
	exactnessRuns(t)
	t.Logf("%d picks and %d removals compared", picks.Load(), removals.Load())
	if picks.Load() == 0 {
		t.Errorf("no pick compared")
	}
}
