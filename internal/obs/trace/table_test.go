package trace

import (
	"context"
	"math"
	"testing"
)

// TestTableSelfTimes pins the table rows as self times: each span's
// duration minus its direct children's, summed by name, so that for
// nested sequential spans the rows add up to the root's duration.
func TestTableSelfTimes(t *testing.T) {
	tr := New("t", Options{})
	ctx, root := StartTable(NewContext(context.Background(), tr), "root")
	for i := 0; i < 2; i++ {
		actx, a := StartSpan(ctx, "a")
		_, b := StartSpan(actx, "b")
		b.End()
		a.End()
	}
	root.End()
	root.End() // idempotent: the root's row is added once

	recs := tr.Snapshot()
	want := map[string]float64{}
	for _, r := range recs {
		want[r.Name] += r.Seconds()
		if p, ok := byID(recs, r.Parent); ok {
			want[p.Name] -= r.Seconds()
		}
	}
	rows := root.Phases()
	if len(rows) != 3 {
		t.Fatalf("rows %v, want root, a, b", rows)
	}
	for _, p := range rows {
		if math.Abs(p.Seconds-want[p.Name]) > 1e-9 {
			t.Errorf("row %s = %.9fs, want %.9fs", p.Name, p.Seconds, want[p.Name])
		}
	}
	if r, _ := rows.Get("root"); r.Count != 1 {
		t.Errorf("root row counted %d times, want 1", r.Count)
	}
	if math.Abs(rows.Seconds()-recs[0].Seconds()) > 1e-9 {
		t.Errorf("rows sum to %.9fs, root lasted %.9fs", rows.Seconds(), recs[0].Seconds())
	}
}

func byID(recs []Record, id SpanID) (Record, bool) {
	for _, r := range recs {
		if r.ID == id {
			return r, true
		}
	}
	return Record{}, false
}

// TestTableWithoutTracer pins the untraced table: spans under it time
// themselves into the table but keep no ID, attributes, track or record,
// and outside a table an untraced StartSpan stays the nil fast path.
func TestTableWithoutTracer(t *testing.T) {
	if _, s := StartSpan(context.Background(), "x"); s != nil {
		t.Fatalf("StartSpan without tracer or table = %+v, want nil", s)
	}
	ctx, root := StartTable(context.Background(), "root")
	_, child := StartSpan(ctx, "child")
	child.SetAttr("k", 1)
	child.SetTrack("lane")
	if child == nil || child.ID() != 0 || child.attrs != nil || child.Track() != "" {
		t.Fatalf("untraced child %+v keeps an ID, attributes or a track", child)
	}
	child.End()
	root.End()
	rows := root.Phases()
	if _, ok := rows.Get("child"); !ok || len(rows) != 2 {
		t.Errorf("rows %v, want root and child", rows)
	}
	if (*Span)(nil).Phases() != nil {
		t.Errorf("nil span has a table")
	}
}
