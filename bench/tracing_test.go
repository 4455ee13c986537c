package main

import (
	"math"
	"testing"
	"time"

	"powder/internal/obs/trace"
)

func TestSelfTimesSubtractSameTrackChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	recs := []trace.Record{
		{ID: 1, Name: "rep", Start: at(0), End: at(10)},
		{ID: 2, Parent: 1, Name: "blif.Read", Start: at(1), End: at(4)},
		{ID: 3, Parent: 1, Name: "core.OptimizeCtx", Start: at(4), End: at(6)},
		// A client lane beside the rep: its time is not the rep's.
		{ID: 4, Parent: 1, Name: "client", Track: "client-1", Start: at(0), End: at(10)},
		{ID: 5, Parent: 4, Name: "client.Submit", Track: "client-1", Start: at(2), End: at(5)},
	}
	self := selfTimes(recs)
	want := map[string]float64{"rep": 5, "blif.Read": 3, "core.OptimizeCtx": 2, "client": 7, "client.Submit": 3}
	for name, w := range want {
		if math.Abs(self[name]-w) > 1e-9 {
			t.Errorf("self(%s) = %v, want %v", name, self[name], w)
		}
	}
	// Layer spans: 3+2+3 s. Container time with no child running: none in
	// the rep, which the client lane covers throughout, and 7 s of the
	// lane, whose only child is the 3 s submit.
	if got := layerCover(recs); math.Abs(got-8.0/15) > 1e-9 {
		t.Errorf("layer cover = %v, want 8/15", got)
	}
	// Overlapping children count once, clipped to the parent.
	kids := []trace.Record{
		{Start: at(1), End: at(4)}, {Start: at(3), End: at(6)}, {Start: at(8), End: at(12)},
	}
	if got := covered(recs[0], kids); math.Abs(got-7) > 1e-9 {
		t.Errorf("covered = %v, want 7", got)
	}
}
