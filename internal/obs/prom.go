package obs

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// ExpositionBounds is the fixed bucket-bound set of the Prometheus
// histogram exposition. The internal layout is much finer (growth
// 2^(1/4)); re-bucketing onto these bounds undercounts a bound by at
// most one internal bucket (~19% relative on the bound value), which is
// the same error class as the quantile estimate.
var ExpositionBounds = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 0.5, 1, 2.5, 5, 10, 30, 60, 300, 1800,
}

// Cumulative returns, for each bound, the number of observations
// recorded in internal buckets whose upper edge is at or below it (the
// Prometheus cumulative-bucket contract under the re-bucketing above).
// bounds must be sorted ascending. A nil histogram returns all zeros.
func (h *Histogram) Cumulative(bounds []float64) []int64 {
	out := make([]int64, len(bounds))
	if h == nil {
		return out
	}
	var cum int64
	bi := 0
	for i := 0; i < histBuckets; i++ {
		upper := bucketUpper(i)
		for bi < len(bounds) && bounds[bi] < upper {
			out[bi] = cum
			bi++
		}
		cum += h.buckets[i].Load()
	}
	for ; bi < len(bounds); bi++ {
		out[bi] = cum
	}
	return out
}

// promName mangles a registry metric name ("atpg.check.seconds") into a
// Prometheus metric name ("atpg_check_seconds"), with an optional
// prefix.
func promName(prefix, name string) string {
	var b strings.Builder
	b.WriteString(prefix)
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// formatFloat renders a sample value the way Prometheus clients do.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// PromGauge writes one gauge family (TYPE line plus a single sample).
func PromGauge(w io.Writer, name string, v float64) {
	fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name, formatFloat(v))
}

// PromCounter writes one counter family; name should already carry the
// conventional _total suffix.
func PromCounter(w io.Writer, name string, v float64) {
	fmt.Fprintf(w, "# TYPE %s counter\n%s %s\n", name, name, formatFloat(v))
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (0.0.4): every counter as a _total counter family and every
// histogram as a cumulative-bucket histogram family over
// ExpositionBounds. Labeled series (registry keys built with Labeled)
// are regrouped so one family gets a single TYPE line followed by all
// of its label sets. Families are emitted in sorted name order so the
// output is stable for golden tests. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer, prefix string) {
	if r == nil {
		return
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	r.mu.RUnlock()

	// Sorting full keys groups a family's label sets contiguously: '{'
	// sorts after every name character, so the unlabeled series (if any)
	// leads and labeled ones follow in canonical label order.
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	lastFam := ""
	for _, name := range names {
		base, labels := splitLabels(name)
		fam := promName(prefix, base)
		if !strings.HasSuffix(fam, "_total") {
			fam += "_total"
		}
		if fam != lastFam {
			fmt.Fprintf(w, "# TYPE %s counter\n", fam)
			lastFam = fam
		}
		if labels != "" {
			fmt.Fprintf(w, "%s{%s} %s\n", fam, labels, formatFloat(float64(counters[name].Value())))
		} else {
			fmt.Fprintf(w, "%s %s\n", fam, formatFloat(float64(counters[name].Value())))
		}
	}

	names = names[:0]
	for name := range hists {
		names = append(names, name)
	}
	sort.Strings(names)
	lastFam = ""
	for _, name := range names {
		base, labels := splitLabels(name)
		fam := promName(prefix, base)
		if fam != lastFam {
			fmt.Fprintf(w, "# TYPE %s histogram\n", fam)
			lastFam = fam
		}
		writePromHistogramSeries(w, fam, labels, hists[name])
	}
}

// writePromHistogramSeries writes the samples of one histogram series;
// labels is the pre-rendered label body ("" for the unlabeled series)
// merged before the le label on bucket lines.
func writePromHistogramSeries(w io.Writer, name, labels string, h *Histogram) {
	sep := ""
	if labels != "" {
		sep = labels + ","
	}
	counts := h.Cumulative(ExpositionBounds)
	for i, bound := range ExpositionBounds {
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, sep, formatFloat(bound), counts[i])
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, sep, h.Count())
	if labels != "" {
		fmt.Fprintf(w, "%s_sum{%s} %s\n", name, labels, formatFloat(h.Sum()))
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.Count())
	} else {
		fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(h.Sum()))
		fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	}
}

// WriteRuntimeMetrics writes the process-level collectors (goroutines,
// heap, GC) in exposition format, using the conventional go_* names.
func WriteRuntimeMetrics(w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	PromGauge(w, "go_goroutines", float64(runtime.NumGoroutine()))
	PromGauge(w, "go_memstats_heap_alloc_bytes", float64(ms.HeapAlloc))
	PromGauge(w, "go_memstats_heap_sys_bytes", float64(ms.HeapSys))
	PromGauge(w, "go_memstats_heap_objects", float64(ms.HeapObjects))
	PromCounter(w, "go_gc_cycles_total", float64(ms.NumGC))
	PromCounter(w, "go_gc_pause_seconds_total", float64(ms.PauseTotalNs)/1e9)
}
