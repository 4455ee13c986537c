package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"powder/internal/obs/trace"
)

// measurement is one reported metric value with the number of samples it
// summarizes.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	// Note qualifies the value, e.g. which percentile a tail is.
	Note string `json:"note,omitempty"`
}

// report is the outcome of one workload run: every metric, the raw
// samples behind them, and the output checks. The workload's child
// process writes it; the benchmark prints it and keeps it under
// bench/results, where compare reads it back.
type report struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Smoke    bool   `json:"smoke,omitempty"`
	Traced   bool   `json:"traced"`
	Seconds  int    `json:"seconds"`
	// Started is when the run's child process was launched; compare pairs
	// runs in this order.
	Started    time.Time `json:"started"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"numcpu"`
	Reps       int       `json:"reps"`
	// Attempted counts operations: engine runs, or daemon submissions.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Failures describes the first failed operations.
	Failures []string `json:"failures,omitempty"`
	// Metrics holds the end-to-end metrics of an untraced run, or the
	// per-layer metrics of a traced one.
	Metrics map[string]measurement `json:"metrics"`
	// Extra holds metrics outside BENCHMARK.json: ones only some
	// workloads have, like the daemon's hit and miss latencies.
	Extra map[string]measurement `json:"extra,omitempty"`
	// Samples holds the raw per-rep or per-operation values behind each
	// end-to-end metric.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// Phases sums the engine's reported seconds per phase over the
	// measured runs.
	Phases map[string]float64 `json:"phases,omitempty"`
	// SelfTimes is the traced rep's self time per span name, in seconds.
	SelfTimes map[string]float64 `json:"self_times,omitempty"`

	// spans are the traced rep's spans, written as a Perfetto file.
	spans []trace.Record
}

// maxFailures bounds how many failure descriptions a report keeps.
const maxFailures = 20

func newReport(w workload, seed int64, smoke, traced bool, seconds int) *report {
	return &report{
		Workload: w.Name, Seed: seed, Smoke: smoke, Traced: traced, Seconds: seconds,
		Metrics: map[string]measurement{}, Extra: map[string]measurement{}, Samples: map[string][]float64{},
	}
}

// fail records one failed operation.
func (r *report) fail(op string, reasons ...string) {
	r.Failed++
	if len(r.Failures) < maxFailures {
		r.Failures = append(r.Failures, op+": "+strings.Join(reasons, "; "))
	}
}

// set records a metric of BENCHMARK.json; value summarizes n samples.
func (r *report) set(name string, value float64, n int) {
	r.Metrics[name] = measurement{Value: value, Unit: unitOf(name), N: n}
}

// setSamples records an end-to-end metric as the median of its samples,
// keeping the samples.
func (r *report) setSamples(name string, xs []float64) {
	r.Samples[name] = xs
	r.set(name, median(xs), len(xs))
}

// extra records a metric outside BENCHMARK.json.
func (r *report) extra(name, unit string, value float64, n int, note string) {
	r.Extra[name] = measurement{Value: value, Unit: unit, N: n, Note: note}
}

// latency records the median and tail of a latency sample (seconds) as
// extra metrics <prefix>_p50_ms and <prefix>_p<tail>_ms.
func (r *report) latency(prefix string, secs []float64) {
	if len(secs) == 0 {
		return
	}
	ms := make([]float64, len(secs))
	for i, s := range secs {
		ms[i] = s * 1e3
	}
	r.extra(prefix+"_p50_ms", "ms", median(ms), len(ms), "")
	if p, v, beyond, ok := tail(ms); ok && p > 50 {
		r.extra(fmt.Sprintf("%s_p%g_ms", prefix, p), "ms", v, len(ms), fmt.Sprintf("%d samples beyond", beyond))
	}
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

// expected returns the metric names a report must carry.
func (r *report) expected() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// validate checks that the report carries every metric its pass owes, each
// a finite number.
func (r *report) validate() error {
	for _, d := range r.expected() {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s missing", r.Workload, d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.Workload, d.Name, m.Value)
		}
	}
	return nil
}

// print writes one line per metric: workload, name, value, unit and the
// sample count, end-to-end or per-layer metrics first, extras after.
func (r *report) print(w io.Writer) {
	for _, d := range r.expected() {
		m := r.Metrics[d.Name]
		fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", r.Workload, d.Name, m.Value, m.Unit, m.N)
	}
	names := make([]string, 0, len(r.Extra))
	for n := range r.Extra {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Extra[n]
		note := ""
		if m.Note != "" {
			note = " (" + m.Note + ")"
		}
		fmt.Fprintf(w, "%s %s %.6g %s n=%d%s\n", r.Workload, n, m.Value, m.Unit, m.N, note)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%s FAILED %s\n", r.Workload, f)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
