package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fakeRun builds an untraced report of workload heavy-seq started at start,
// with every end-to-end metric at 1 except wall_s, which gets the given
// value and within-run samples.
func fakeRun(start time.Time, wall float64, samples ...float64) *report {
	r := &report{Workload: "heavy-seq", Started: start, Metrics: map[string]measurement{}, Samples: map[string][]float64{}}
	for _, d := range endToEnd {
		r.Metrics[d.Name] = measurement{Value: 1, Unit: d.Unit}
	}
	r.Metrics["wall_s"] = measurement{Value: wall, Unit: "s"}
	r.Samples["wall_s"] = samples
	return r
}

// wallOutcome returns the outcome compare prints for wall_s.
func wallOutcome(t *testing.T, base, cur []*report) string {
	t.Helper()
	var out bytes.Buffer
	comparison(&out, map[string][]*report{"heavy-seq": base}, map[string][]*report{"heavy-seq": cur})
	for _, l := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(l); len(f) > 0 && f[0] == "wall_s" {
			return l[strings.LastIndex(l, "  ")+2:]
		}
	}
	t.Fatalf("no wall_s line in\n%s", out.String())
	return ""
}

// TestCompareNeverPairsSamplesWithinARun compares two runs of one program
// on a host whose speed drifted between them: every sample of the second
// run beats its counterpart in the first. Pairing those samples would
// claim a gain; one run per side can claim none.
func TestCompareNeverPairsSamplesWithinARun(t *testing.T) {
	t0 := time.Unix(0, 0)
	var slow, fast []float64
	for i := 0; i < 12; i++ {
		slow = append(slow, 10+0.01*float64(i))
		fast = append(fast, 9+0.01*float64(i))
	}
	got := wallOutcome(t, []*report{fakeRun(t0, median(slow), slow...)}, []*report{fakeRun(t0.Add(time.Minute), median(fast), fast...)})
	if got == "gain" {
		t.Fatal("samples from inside one run were paired into a gain")
	}
}

func TestCompareClaimsGainOnlyOnAlternatingPairs(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(i int) time.Time { return t0.Add(time.Duration(i) * time.Minute) }
	var base, alt, after []*report
	for i := 0; i < minPairs; i++ {
		b, n := 10+0.01*float64(i), 9+0.01*float64(i)
		// Pair i runs at minutes 2i and 2i+1, base first in even pairs.
		bt, nt := at(2*i), at(2*i+1)
		if i%2 == 1 {
			bt, nt = nt, bt
		}
		base = append(base, fakeRun(bt, b))
		alt = append(alt, fakeRun(nt, n))
		after = append(after, fakeRun(at(2*minPairs+i), n))
	}
	if got := wallOutcome(t, base, alt); got != "gain" {
		t.Errorf("ten alternating pairs, each won: %q, want gain", got)
	}
	// The same values with every new run after every base run.
	if got := wallOutcome(t, base, after); got == "gain" {
		t.Error("runs that do not alternate were judged a gain")
	}
	// Nine pairs are too few.
	if got := wallOutcome(t, base[:minPairs-1], alt[:minPairs-1]); got == "gain" {
		t.Errorf("%d pairs were judged a gain", minPairs-1)
	}
}

func TestLoadRunsReadsEachRunOnceInStartOrder(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Unix(0, 0)
	runs := []*report{fakeRun(t0.Add(2*time.Minute), 12), fakeRun(t0, 10), fakeRun(t0.Add(time.Minute), 11)}
	traced := fakeRun(t0.Add(3*time.Minute), 99)
	traced.Traced = true
	for i, r := range append(runs, traced) {
		if err := writeJSON(filepath.Join(dir, fmt.Sprintf("heavy-seq-%d.json", i)), r); err != nil {
			t.Fatal(err)
		}
	}
	// A set file repeats the runs it holds.
	if err := writeJSON(filepath.Join(dir, "set-seed1.json"), resultSet{Reports: runs}); err != nil {
		t.Fatal(err)
	}
	got, err := loadRuns(dir)
	if err != nil {
		t.Fatal(err)
	}
	vals := runValues(got["heavy-seq"], "wall_s")
	if len(vals) != 3 || vals[0] != 10 || vals[1] != 11 || vals[2] != 12 {
		t.Fatalf("wall_s by run = %v, want [10 11 12]", vals)
	}
}
