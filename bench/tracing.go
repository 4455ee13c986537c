package main

import (
	"sort"
	"time"

	"powder/internal/obs/trace"
)

// Benchmark-side tracing. A traced rep records one span around every call
// the benchmark makes into the program, under a workload → rep → call
// parent chain with one trace ID per rep. The spans come from the
// benchmark's files only: the context handed to the program carries no
// tracer, so the engine's own spans stay off.

// child opens a span under parent on parent's track. Like the tracer it
// wraps, it is a no-op without one.
func child(tr *trace.Tracer, name string, parent *trace.Span) *trace.Span {
	s := tr.Start(name, parent.ID())
	s.SetTrack(parent.Track())
	return s
}

// selfTimes returns each span name's self time, in seconds: the span's
// duration minus the part of it covered by child spans on the same track.
// Children on another track (a concurrent client lane) run beside their
// parent, not inside its time.
func selfTimes(recs []trace.Record) map[string]float64 {
	byID := make(map[trace.SpanID]trace.Record, len(recs))
	for _, r := range recs {
		byID[r.ID] = r
	}
	kids := map[trace.SpanID][]trace.Record{}
	for _, r := range recs {
		if p, ok := byID[r.Parent]; ok && p.Track == r.Track {
			kids[r.Parent] = append(kids[r.Parent], r)
		}
	}
	self := map[string]float64{}
	for _, r := range recs {
		self[r.Name] += r.Seconds() - covered(r, kids[r.ID])
	}
	return self
}

// layerCover returns the share of the traced time that the layer spans,
// the spans without children, account for: their summed time over that
// plus the time each container span (workload, rep, client lane) runs with
// none of its children active. A call into the program left without a
// span shows up as container time, so as cover below 1.
func layerCover(recs []trace.Record) float64 {
	kids := map[trace.SpanID][]trace.Record{}
	for _, r := range recs {
		kids[r.Parent] = append(kids[r.Parent], r)
	}
	var layers, gaps float64
	for _, r := range recs {
		if ks := kids[r.ID]; len(ks) > 0 {
			gaps += r.Seconds() - covered(r, ks)
		} else {
			layers += r.Seconds()
		}
	}
	if layers+gaps == 0 {
		return 0
	}
	return layers / (layers + gaps)
}

// covered returns how many seconds of parent the union of children spans.
func covered(parent trace.Record, children []trace.Record) float64 {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	total := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total.Seconds()
}
