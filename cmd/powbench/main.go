// Command powbench regenerates the experiments of the paper:
//
//	powbench -table1      per-circuit results without / with delay constraints
//	powbench -table2      contribution of OS2/IS2/OS3/IS3 to power and area
//	powbench -fig6        the power-delay trade-off curve
//	powbench -seq         the sequential family (steady-state fixpoint +
//	                      optimization at the register cut)
//	powbench -all         everything
//
// -circuits restricts the run to a comma-separated subset; -parallel N
// fans the per-circuit runs out over the internal/service worker pool
// (tables and reports stay in circuit order; the per-circuit CPU column
// then measures wall time under contention); -csv writes the Table 1
// rows to a file for plotting; -json writes the machine-readable run
// report (Table 1 rows plus per-phase timings, checker effort, and
// reject-reason counts) used to track the performance trajectory across
// changes (the BENCH_*.json format); -trajectory appends one compact
// benchmark entry (git rev, wall time, power before/after, proof count,
// peak RSS) to a powder-trajectory/v1 file, and -bench-baseline fails
// the run when it regresses more than 10% power or 2x wall time against
// the newest entry of a committed baseline.
//
// Observability: -trace-json streams the Table 1 runs' span ends (and a
// final metrics record) as JSON Lines, -trace-perfetto records the same
// spans as Chrome/Perfetto trace-event JSON, -metrics prints the
// aggregated metrics registry to stderr, and -cpuprofile/-memprofile
// write pprof profiles.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"powder/internal/activity"
	"powder/internal/circuits"
	"powder/internal/expt"
	"powder/internal/obs"
	"powder/internal/obs/trace"
	"powder/internal/seq"
)

func main() {
	var (
		table1   = flag.Bool("table1", false, "run the Table 1 experiment")
		table2   = flag.Bool("table2", false, "run the Table 2 experiment (same runs as Table 1)")
		fig6     = flag.Bool("fig6", false, "run the Figure 6 power-delay trade-off")
		baseline = flag.Bool("baseline", false, "compare redundancy removal (ref [1]) against POWDER")
		seqRun   = flag.Bool("seq", false, "run the sequential family (fixpoint + register-cut optimization)")
		all      = flag.Bool("all", false, "run every experiment")
		list     = flag.Bool("list", false, "list the benchmark circuits and exit")
		subset   = flag.String("circuits", "", "comma-separated circuit subset (default: the paper's sets)")
		seqSubst = flag.String("seq-circuits", "", "comma-separated sequential-circuit subset")
		csvPath  = flag.String("csv", "", "write Table 1 rows as CSV to this file")
		jsonPath = flag.String("json", "", "write the JSON run report (Table 1 rows + per-phase timings) to this file")

		trajectory    = flag.String("trajectory", "", "append one benchmark-trajectory entry (git rev, wall time, power, proofs, peak RSS) to this JSON file")
		benchBaseline = flag.String("bench-baseline", "", "fail if this run regresses >10% power or >2x wall time against the newest entry of this trajectory file")
		probsPath     = flag.String("probs", "", "per-primary-input signal probability file (name=p lines); entries are matched by input name on every circuit, unmatched inputs stay at 0.5")
		activityPath  = flag.String("activity", "", "workload switching-activity dump (VCD or SAIF, sniffed by content); bound by input name onto every circuit")

		quiet    = flag.Bool("quiet", false, "suppress per-circuit progress")
		mapArea  = flag.Bool("map-area", false, "use area-cost initial mapping instead of power-aware")
		preOpt   = flag.Bool("preopt", false, "pre-optimize initial circuits with redundancy removal (POSE-grade starting points)")
		timeout  = flag.Duration("timeout", 0, "per-circuit wall-clock budget; expired runs report their best result (0 = none)")
		retries  = flag.Int("max-retries", 0, "per-circuit budget-escalation retries for aborted proofs (0 = no escalation)")
		parallel = flag.Int("parallel", 1, "run circuits concurrently on this many workers (0 = GOMAXPROCS); output stays in circuit order")
		par      = flag.Int("par", 1, "per-circuit engine parallelism: fanout-region workers inside each optimization (<=1 = one region)")

		server     = flag.String("server", "", "run the suite against a powderd daemon at this base URL instead of in-process (honors -circuits, -timeout, -quiet)")
		srvNoCache = flag.Bool("no-cache", false, "with -server: bypass the daemon's content-addressed result cache")

		traceJSON     = flag.String("trace-json", "", "write the Table 1 runs' span ends and the final metrics as JSON Lines to this file")
		tracePerfetto = flag.String("trace-perfetto", "", "write the Table 1 runs' span traces as Chrome/Perfetto trace-event JSON to this file")
		metrics       = flag.Bool("metrics", false, "collect a metrics registry over all runs and print it to stderr")
		cpuProfile    = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile    = flag.String("memprofile", "", "write a pprof heap profile to this file")
	)
	flag.Parse()

	if *list {
		for _, s := range circuits.All() {
			fmt.Printf("%-10s %s\n", s.Name, s.Kind)
		}
		for _, s := range circuits.SeqAll() {
			fmt.Printf("%-10s %s (sequential, %d latches)\n", s.Name, s.Kind, s.Latches)
		}
		return
	}
	if *server != "" {
		if err := runRemote(*server, *subset, *timeout, *srvNoCache, *quiet); err != nil {
			fail(err)
		}
		return
	}
	if (*jsonPath != "" || *trajectory != "" || *benchBaseline != "") && !(*table1 || *table2 || *all) {
		// The run report and the benchmark trajectory are assembled from
		// the Table 1 suite.
		*table1 = true
	}
	if !*table1 && !*table2 && !*fig6 && !*baseline && !*seqRun && !*all {
		flag.Usage()
		os.Exit(2)
	}

	if *cpuProfile != "" {
		stopProf, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			fail(err)
		}
		defer stopProf()
	}

	// The -trace-json file is a view of the tracer's span ends.
	var sink obs.Sink
	if *traceJSON != "" {
		f, err := os.Create(*traceJSON)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		sink = obs.NewJSONLSink(f)
	}
	var reg *obs.Registry
	if *metrics || *traceJSON != "" || *jsonPath != "" {
		reg = obs.NewRegistry()
	}
	// SIGQUIT dumps the flight recorder (with the registry's counter
	// movement folded in) ahead of the runtime's goroutine dump.
	obs.FlightDumpOnQuit(reg)

	var tracer *trace.Tracer
	if *tracePerfetto != "" || sink != nil {
		tracer = trace.New("powbench", trace.Options{
			Obs:         sink,
			DropCounter: reg.Counter("trace.dropped.spans"),
		})
	}

	opts := expt.RunOptions{MapArea: *mapArea, PreOptimize: *preOpt, Metrics: reg, Tracer: tracer}
	if *probsPath != "" && *activityPath != "" {
		fail(fmt.Errorf("use either -probs or -activity, not both (the dump already carries input probabilities)"))
	}
	if *probsPath != "" {
		m, err := loadProbsMap(*probsPath)
		if err != nil {
			fail(err)
		}
		opts.InputProbs = m
	}
	if *activityPath != "" {
		prof, err := loadProfile(*activityPath)
		if err != nil {
			fail(err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "activity: %s (%s, %d signals, %d ignored, %d cycles)\n",
				*activityPath, prof.Source, len(prof.Signals), prof.Ignored, prof.Cycles)
		}
		opts.Activity = prof
	}
	opts.Core.Timeout = *timeout
	opts.Core.MaxRetries = *retries
	opts.Core.Parallelism = *par
	opts.Parallel = *parallel
	if *parallel <= 0 {
		opts.Parallel = runtime.GOMAXPROCS(0)
	}
	if !*quiet {
		opts.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}

	pick := func(defaults []circuits.Spec) []circuits.Spec {
		if *subset == "" {
			return defaults
		}
		var out []circuits.Spec
		for _, name := range strings.Split(*subset, ",") {
			s, err := circuits.ByName(strings.TrimSpace(name))
			if err != nil {
				fail(err)
			}
			out = append(out, s)
		}
		return out
	}

	var (
		suite     *expt.Suite
		suiteWall time.Duration
		seqSuite  *expt.SeqSuite
	)
	if *table1 || *table2 || *all {
		suiteStart := time.Now()
		var err error
		suite, err = expt.RunSuite(pick(circuits.All()), opts)
		if err != nil {
			fail(err)
		}
		suiteWall = time.Since(suiteStart)
		if *table1 || *all {
			expt.RenderTable1(os.Stdout, suite)
			fmt.Println()
		}
		if *table2 || *all {
			expt.RenderTable2(os.Stdout, suite)
			fmt.Println()
		}
		if *csvPath != "" {
			f, err := os.Create(*csvPath)
			if err != nil {
				fail(err)
			}
			expt.RenderCSV(f, suite)
			f.Close()
			fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
		}
	}

	if *seqRun || *all {
		pickSeq := func(defaults []circuits.SeqSpec) []circuits.SeqSpec {
			if *seqSubst == "" {
				return defaults
			}
			var out []circuits.SeqSpec
			for _, name := range strings.Split(*seqSubst, ",") {
				s, err := circuits.SeqByName(strings.TrimSpace(name))
				if err != nil {
					fail(err)
				}
				out = append(out, s)
			}
			return out
		}
		var err error
		seqSuite, err = expt.RunSeqSuite(pickSeq(circuits.SeqAll()), opts)
		if err != nil {
			fail(err)
		}
		expt.RenderSeqTable(os.Stdout, seqSuite)
		fmt.Println()
	}

	if suite != nil {
		if *jsonPath != "" {
			var snap *obs.Snapshot
			if reg != nil {
				s := reg.Snapshot()
				snap = &s
			}
			report := expt.BuildReport(suite, expt.ReportOptions{
				MapArea: *mapArea, PreOptimize: *preOpt,
			}, snap)
			if seqSuite != nil {
				report.AttachSeq(seqSuite)
			}
			f, err := os.Create(*jsonPath)
			if err != nil {
				fail(err)
			}
			if err := expt.WriteReportJSON(f, report); err != nil {
				f.Close()
				fail(err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
		}
		if *trajectory != "" || *benchBaseline != "" {
			entry := expt.BuildTrajectoryEntry(suite, suiteWall)
			entry.Par = *par
			if *benchBaseline != "" {
				// The regression gate runs before the append so a CI job
				// pointing both flags at the same file never compares the
				// fresh entry against itself.
				base, err := expt.LoadTrajectory(*benchBaseline)
				if err != nil {
					fail(err)
				}
				if err := expt.CheckRegression(entry, base, 10, 2); err != nil {
					fail(err)
				}
				fmt.Fprintf(os.Stderr, "no regression vs %s\n", *benchBaseline)
			}
			if *trajectory != "" {
				if err := expt.AppendTrajectory(*trajectory, entry); err != nil {
					fail(err)
				}
				fmt.Fprintf(os.Stderr, "appended trajectory entry to %s (rev %s, %.1fs, %.1f%% reduction)\n",
					*trajectory, entry.GitRev, entry.WallSeconds, entry.ReductionPct)
			}
		}
	}

	if *baseline || *all {
		rows, err := expt.RunBaseline(pick(circuits.All()), opts)
		if err != nil {
			fail(err)
		}
		expt.RenderBaseline(os.Stdout, rows)
		fmt.Println()
	}

	if *fig6 || *all {
		points, err := expt.RunTradeoff(pick(circuits.Fig6Subset()), nil, opts)
		if err != nil {
			fail(err)
		}
		expt.RenderTradeoff(os.Stdout, points)
	}

	if *tracePerfetto != "" {
		f, err := os.Create(*tracePerfetto)
		if err != nil {
			fail(err)
		}
		spans := tracer.Snapshot()
		if err := trace.WritePerfetto(f, spans); err != nil {
			f.Close()
			fail(err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "wrote %s (%d spans, %d dropped)\n", *tracePerfetto, len(spans), tracer.Dropped())
	}

	if reg != nil {
		snap := reg.Snapshot()
		if sink != nil {
			sink.Emit(obs.Event{Time: time.Now(), Name: "metrics", Fields: obs.Fields{
				"counters":   snap.Counters,
				"histograms": snap.Histograms,
			}})
		}
		if *metrics {
			snap.WriteText(os.Stderr)
		}
	}
	if *memProfile != "" {
		if err := obs.WriteHeapProfile(*memProfile); err != nil {
			fail(err)
		}
	}
}

// loadProbsMap reads a "name=p" probability file into the name-keyed
// map expt.RunOptions consumes (suite circuits differ in their input
// sets, so resolution happens per circuit).
func loadProbsMap(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	entries, err := seq.ParseProbs(f)
	if err != nil {
		return nil, err
	}
	m := make(map[string]float64, len(entries))
	for _, e := range entries {
		m[e.Name] = e.P
	}
	return m, nil
}

// loadProfile reads a VCD or SAIF activity dump (sniffed by content).
func loadProfile(path string) (*activity.Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	prof, err := activity.Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return prof, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "powbench:", err)
	os.Exit(1)
}
