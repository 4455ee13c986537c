package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// compareMain is `bench compare BASE NEW`: for every workload in BASE it
// judges each end-to-end metric of NEW's runs against BASE's and prints one
// row per workload with a line per metric. BASE and NEW are each a results
// file or a directory of them. It exits 1 when any metric regressed beyond
// its bound.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare BASE NEW (each a results file or directory)")
		return 2
	}
	base, err := loadRuns(args[0])
	if err == nil {
		var cur map[string][]*report
		if cur, err = loadRuns(args[1]); err == nil {
			if comparison(stdout, base, cur) {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(stderr, "bench compare:", err)
	return 2
}

// loadRuns reads the untraced runs in a results file (one report or a set
// of them) or in every results file of a directory, and returns them by
// workload in the order they started. A run found twice, as in a set file
// next to its reports, counts once.
func loadRuns(path string) (map[string][]*report, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	out := map[string][]*report{}
	seen := map[string]bool{}
	for _, f := range files {
		if strings.HasSuffix(f, ".perfetto.json") {
			continue
		}
		reports, err := readResults(f)
		if err != nil {
			return nil, err
		}
		for _, r := range reports {
			id := r.Workload + " " + r.Started.String()
			if r.Traced || seen[id] {
				continue
			}
			seen[id] = true
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced runs", path)
	}
	for _, runs := range out {
		sort.SliceStable(runs, func(i, j int) bool { return runs[i].Started.Before(runs[j].Started) })
	}
	return out, nil
}

// readResults reads one results file: a set of reports or a single one.
func readResults(path string) ([]*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if set.Reports != nil {
		return set.Reports, nil
	}
	r, err := readReport(path)
	if err != nil {
		return nil, err
	}
	return []*report{r}, nil
}

// alternating reports whether base and cur are paired runs made in
// alternating order: the i-th runs of the two sides form pair i, each pair
// ends before the next begins, and the side that ran first changes from
// one pair to the next. Alternation keeps a host whose speed drifts from
// favouring one side.
func alternating(base, cur []*report) bool {
	if len(base) != len(cur) {
		return false
	}
	var prevSecond time.Time
	prevBaseFirst := false
	for i := range base {
		baseFirst := base[i].Started.Before(cur[i].Started)
		first, second := cur[i].Started, base[i].Started
		if baseFirst {
			first, second = second, first
		}
		if i > 0 && (!prevSecond.Before(first) || baseFirst == prevBaseFirst) {
			return false
		}
		prevSecond, prevBaseFirst = second, baseFirst
	}
	return true
}

// runValues returns each run's value of a metric, the median over its
// reps or samples.
func runValues(runs []*report, metric string) []float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = r.Metrics[metric].Value
	}
	return xs
}

// runSpread is the spread between a side's runs. With a single run it
// falls back to the spread of that run's own samples, which can only
// understate the spread between runs.
func runSpread(runs []*report, metric string) float64 {
	if len(runs) > 1 {
		return spread(runValues(runs, metric))
	}
	if xs := runs[0].Samples[metric]; len(xs) > 1 {
		return spread(xs)
	}
	return 0
}

// verdict is the judgment of one metric on one workload.
type verdict struct {
	baseMed, baseQ1, baseQ3 float64
	curMed, curQ1, curQ3    float64
	wins, pairs             int
	outcome                 string
}

// minPairs is the fewest alternating run pairs a gain may rest on.
const minPairs = 10

// judge compares one metric's per-run values. A median worse by more than
// the bound (and the floor) is a regression. A spread between runs wider
// than the bound leaves the metric unresolved, unless every new run beats
// every base run. A gain needs paired runs (run i of base with run i of
// cur), at least minPairs of them, nine tenths of all pairs won with ties
// counting for neither side, and a median difference larger than the
// quartile distance of the base runs.
func judge(d metricDef, base, cur []float64, baseSpread, curSpread float64, paired bool) verdict {
	v := verdict{baseMed: median(base), curMed: median(cur)}
	v.baseQ1, v.baseQ3 = quartiles(base)
	v.curQ1, v.curQ3 = quartiles(cur)
	if paired {
		v.pairs = min(len(base), len(cur))
		for i := 0; i < v.pairs; i++ {
			if worsening(d.Better, base[i], cur[i]) < 0 {
				v.wins++
			}
		}
	}
	allBetter := true
	for _, b := range base {
		for _, c := range cur {
			if worsening(d.Better, b, c) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case baseSpread > d.Bound || curSpread > d.Bound:
		v.outcome = "unresolved"
		if allBetter {
			v.outcome = "better"
		}
	case regressed(d, v.baseMed, v.curMed):
		v.outcome = "REGRESSION"
	case worsening(d.Better, v.baseMed, v.curMed) < 0 && v.pairs >= minPairs &&
		float64(v.wins) >= 0.9*float64(v.pairs) && math.Abs(v.curMed-v.baseMed) > v.baseQ3-v.baseQ1:
		v.outcome = "gain"
	default:
		v.outcome = "within bound"
	}
	return v
}

// comparison prints the per-workload rows and reports whether any metric
// regressed.
func comparison(w io.Writer, base, cur map[string][]*report) (regression bool) {
	for _, wl := range workloads {
		b, ok := base[wl.Name]
		if !ok {
			continue
		}
		c, ok := cur[wl.Name]
		if !ok {
			fmt.Fprintf(w, "%s: missing from the new results\n", wl.Name)
			regression = true
			continue
		}
		paired := alternating(b, c)
		var lines []string
		counts := map[string]int{}
		for _, d := range endToEnd {
			v := judge(d, runValues(b, d.Name), runValues(c, d.Name), runSpread(b, d.Name), runSpread(c, d.Name), paired)
			counts[v.outcome]++
			if v.outcome == "REGRESSION" {
				regression = true
			}
			change := 0.0
			if v.baseMed != 0 {
				change = 100 * (v.curMed - v.baseMed) / math.Abs(v.baseMed)
			}
			lines = append(lines, fmt.Sprintf("  %-22s base %.6g [%.6g, %.6g]  new %.6g [%.6g, %.6g]  %+.2f%%  wins %d/%d  bound %.3g  %s",
				d.Name, v.baseMed, v.baseQ1, v.baseQ3, v.curMed, v.curQ1, v.curQ3, change, v.wins, v.pairs, d.Bound, v.outcome))
		}
		pairing := "not paired in alternating order, so no gain can be claimed"
		if paired {
			pairing = fmt.Sprintf("%d run pairs in alternating order", len(b))
		}
		fmt.Fprintf(w, "%s: %d base runs, %d new runs, %s: %d regression, %d unresolved, %d gain, %d better, %d within bound\n",
			wl.Name, len(b), len(c), pairing,
			counts["REGRESSION"], counts["unresolved"], counts["gain"], counts["better"], counts["within bound"])
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
	}
	return regression
}
