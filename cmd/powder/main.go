// Command powder optimizes the power of a technology-mapped circuit by
// ATPG-based structural transformations (Rohfleisch/Kölbl/Wurth, DAC'96).
//
// Usage:
//
//	powder -in circuit.blif [-lib cells.genlib] [-out optimized.blif] [flags]
//	powder -circuit 9sym    [-out optimized.blif] [flags]
//
// The circuit is read as mapped BLIF against the library (default: the
// built-in lib2-style library), or generated from the built-in benchmark
// suite with -circuit. The optimized netlist is written as mapped BLIF.
//
// Sequential circuits (.latch) are detected automatically: the design is
// cut at its register boundaries, the state-line signal probabilities are
// iterated to their steady state (-fix-tol/-fix-max-iter/-fix-damping),
// and the combinational core is optimized with the converged
// probabilities; the emitted BLIF has the latches stitched back. -probs
// FILE supplies per-primary-input signal probabilities as "name=p" lines
// for both combinational and sequential circuits.
//
// Observability: every run moment is the end of a span (optimize →
// round → region → harvest/candidate → atpg-check → sat-solve, plus
// apply and escalation spans; the phase breakdown is their self times).
// -trace-json streams the span ends as JSONL "span" records, closed by
// one "metrics" record; -v prints one line per decided candidate;
// -trace-perfetto writes the span tree as Chrome/Perfetto trace-event
// JSON. -ledger-json writes the run
// ledger (per-substitution provenance and power attribution), -report
// renders a markdown run explanation to stdout, -metrics prints the
// phase breakdown and the metrics the run's result folds into
// (core.RecordMetrics) to stderr, and
// -cpuprofile/-memprofile write pprof profiles. The report goes to
// stdout; traces and progress go to stderr.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"time"

	"powder/internal/activity"
	"powder/internal/atpg"
	"powder/internal/blif"
	"powder/internal/cellib"
	"powder/internal/circuits"
	"powder/internal/core"
	"powder/internal/netlist"
	"powder/internal/obs"
	"powder/internal/obs/trace"
	"powder/internal/power"
	"powder/internal/resize"
	"powder/internal/seq"
	"powder/internal/synth"
	"powder/internal/transform"
	"powder/internal/verilog"
)

// config carries every command-line option of one powder invocation.
type config struct {
	inPath    string
	circuit   string
	libPath   string
	outPath   string
	vlogPath  string
	probsPath string

	activityPath  string
	activityClock int64
	dumpVCDPath   string
	dumpSAIFPath  string

	fixTol     float64
	fixMaxIter int
	fixDamping float64

	delayFactor float64
	delayAbs    float64
	repeat      int
	preselect   int
	words       int
	seed        int64
	budget      int64
	maxSubs     int
	maxRetries  int
	par         int
	timeout     time.Duration
	inverted    bool
	resize      bool
	verify      bool
	verbose     bool

	server  string
	noCache bool

	traceJSON     string
	tracePerfetto string
	ledgerJSON    string
	report        bool
	metrics       bool
	cpuProfile    string
	memProfile    string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.inPath, "in", "", "input mapped BLIF file")
	flag.StringVar(&cfg.circuit, "circuit", "", "use a built-in benchmark circuit instead of -in")
	flag.StringVar(&cfg.libPath, "lib", "", "genlib library file (default: built-in lib2)")
	flag.StringVar(&cfg.outPath, "out", "", "write the optimized netlist as BLIF")
	flag.StringVar(&cfg.vlogPath, "verilog", "", "write the optimized netlist as structural Verilog (with primitives)")
	flag.StringVar(&cfg.probsPath, "probs", "", "per-primary-input signal probability file (name=p lines)")
	flag.StringVar(&cfg.activityPath, "activity", "", "workload switching-activity dump (VCD or SAIF, sniffed by content); matched signals drive input probabilities and pin transition densities")
	flag.Int64Var(&cfg.activityClock, "activity-clock", 0, "clock period of the -activity dump in its own time units, for dumps whose time axis is finer than the clock (0 = one cycle per VCD timestamp / SAIF time unit)")
	flag.StringVar(&cfg.dumpVCDPath, "dump-vcd", "", "write the random-simulation input stimulus as a VCD to this file (ingestable by -activity)")
	flag.StringVar(&cfg.dumpSAIFPath, "dump-saif", "", "write the random-simulation input stimulus as a SAIF summary to this file (ingestable by -activity)")
	flag.Float64Var(&cfg.fixTol, "fix-tol", 0, "steady-state fixpoint tolerance for sequential circuits (0 = 1e-6)")
	flag.IntVar(&cfg.fixMaxIter, "fix-max-iter", 0, "fixpoint iteration cap; hitting it is an error, not a hang (0 = 1000)")
	flag.Float64Var(&cfg.fixDamping, "fix-damping", 0, "fixpoint damping: retained fraction of the previous iterate (0 = 0.5, negative = undamped)")
	flag.Float64Var(&cfg.delayFactor, "delay-factor", 0, "delay constraint as a factor of the initial delay (1.0 = keep delay; 0 = unconstrained)")
	flag.Float64Var(&cfg.delayAbs, "delay", 0, "absolute delay constraint in library time units (0 = unconstrained)")
	flag.IntVar(&cfg.repeat, "repeat", 10, "substitutions per candidate harvest")
	flag.IntVar(&cfg.preselect, "preselect", 12, "candidates reestimated per selection")
	flag.IntVar(&cfg.words, "words", 64, "64-bit sample words for probability estimation")
	flag.Int64Var(&cfg.seed, "seed", 1, "random-vector seed")
	flag.Int64Var(&cfg.budget, "budget", 0, "ATPG/SAT conflict budget per check (0 = default)")
	flag.IntVar(&cfg.maxSubs, "max-subs", 0, "stop after this many substitutions (0 = unlimited)")
	flag.IntVar(&cfg.maxRetries, "max-retries", 0, "budget-escalation retries for aborted proofs across the run (0 = no escalation)")
	flag.IntVar(&cfg.par, "par", 1, "parallel fanout-region workers inside the optimization (<=1 = one region: the paper's greedy loop)")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "wall-clock budget, e.g. 30s; on expiry the best netlist so far is emitted (0 = none)")
	flag.StringVar(&cfg.server, "server", "", "submit to a powderd daemon at this base URL (e.g. http://localhost:8844) instead of optimizing locally")
	flag.BoolVar(&cfg.noCache, "no-cache", false, "with -server: bypass the daemon's content-addressed result cache")
	noInv := flag.Bool("no-inverted", false, "disable inverted-source substitutions")
	flag.BoolVar(&cfg.resize, "resize", false, "run the gate re-sizing pass after POWDER")
	flag.BoolVar(&cfg.verify, "verify", false, "independently re-verify the optimized circuit against the original (SAT equivalence check)")
	flag.BoolVar(&cfg.verbose, "v", false, "print every applied or rejected substitution to stderr")
	flag.StringVar(&cfg.traceJSON, "trace-json", "", "write the run's span ends and final metrics as JSON Lines to this file")
	flag.StringVar(&cfg.tracePerfetto, "trace-perfetto", "", "write the run's hierarchical span trace as Chrome/Perfetto trace-event JSON to this file (load in ui.perfetto.dev)")
	flag.StringVar(&cfg.ledgerJSON, "ledger-json", "", "write the run ledger (substitution provenance + power attribution) as JSON to this file")
	flag.BoolVar(&cfg.report, "report", false, "print a markdown run report (attribution table, predicted-vs-realized, reject and proof stats) instead of the plain summary")
	flag.BoolVar(&cfg.metrics, "metrics", false, "print the phase breakdown and the run's metrics to stderr")
	flag.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	flag.StringVar(&cfg.memProfile, "memprofile", "", "write a pprof heap profile to this file")
	flag.Parse()
	cfg.inverted = !*noInv

	// Ctrl-C asks the engine to stop and emit the best netlist so far; a
	// second Ctrl-C kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if err := run(ctx, cfg, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "powder:", err)
		os.Exit(1)
	}
}

// buildSink assembles the views of one run from the flags: the
// -trace-json file and the -v renderer, both fed by the tracer's span
// ends, and for -metrics or -trace-json the registry the run's result is
// folded into. cleanup releases the trace file. The sink is nil when
// neither -trace-json nor -v is set.
func buildSink(cfg config, stderr io.Writer) (sink obs.Sink, reg *obs.Registry, cleanup func(), err error) {
	var sinks []obs.Sink
	cleanup = func() {}
	if cfg.metrics || cfg.traceJSON != "" {
		reg = obs.NewRegistry()
	}
	if cfg.traceJSON != "" {
		f, err := os.Create(cfg.traceJSON)
		if err != nil {
			return nil, nil, nil, err
		}
		// The file writer hides behind an async drop-and-count stage so a
		// slow disk can never stall the optimizer; drops surface as
		// obs_dropped_events_total in any metrics exposition.
		async := obs.NewAsyncSink(obs.NewJSONLSink(f), 0, reg.Counter("obs.dropped.events"))
		sinks = append(sinks, async)
		cleanup = func() {
			async.Close()
			f.Close()
		}
	}
	if cfg.verbose {
		// Substitution traces go to stderr so stdout stays a clean report.
		sinks = append(sinks, verboseSink(stderr))
	}
	return obs.Multi(sinks...), reg, cleanup, nil
}

// verboseSink renders -v: one line per candidate span that ends with a
// final outcome, "apply" for an applied substitution or "reject
// reason=<code>" for a discarded one, then the span's other attributes
// as sorted key=value pairs. A region worker's "proposed" spans are not
// final (the commit phase decides them) and print nothing.
func verboseSink(w io.Writer) obs.Sink {
	var mu sync.Mutex
	return obs.SinkFunc(func(e obs.Event) {
		if e.Name != "span" || e.Fields["name"] != "candidate" {
			return
		}
		outcome, _ := e.Fields["attr_outcome"].(string)
		line := "reject reason=" + outcome
		switch outcome {
		case "proposed":
			return
		case "applied":
			line = "apply"
		}
		var keys []string
		for k := range e.Fields {
			if strings.HasPrefix(k, "attr_") && k != "attr_outcome" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			line += fmt.Sprintf(" %s=%v", strings.TrimPrefix(k, "attr_"), e.Fields[k])
		}
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintln(w, line)
	})
}

// loadActivity ingests the -activity dump, applies the -activity-clock
// renormalization, and binds it onto the circuit's core inputs, reporting
// coverage to stderr. Returns the binding plus the ledger label naming
// the workload model.
func loadActivity(cfg config, circ *seq.Circuit, stderr io.Writer) (*activity.Binding, string, error) {
	f, err := os.Open(cfg.activityPath)
	if err != nil {
		return nil, "", err
	}
	prof, err := activity.Read(f)
	f.Close()
	if err != nil {
		return nil, "", err
	}
	if cfg.activityClock > 0 {
		if err := prof.SetClockPeriod(cfg.activityClock); err != nil {
			return nil, "", err
		}
	}
	b, label, err := circ.BindActivity(prof, cfg.activityPath)
	if err != nil {
		return nil, "", err
	}
	fmt.Fprintf(stderr, "activity: %s (%s, %d signals, %d ignored, %d cycles): %s\n",
		cfg.activityPath, prof.Source, len(prof.Signals), prof.Ignored, prof.Cycles, b.Coverage())
	return b, label, nil
}

// writeStimulusDumps writes the run's random input stimulus as VCD
// and/or SAIF. For sequential circuits the dump covers the register-cut
// core inputs (true inputs and latch outputs); -probs biases the true
// inputs while state lines stay at 0.5 (their steady state is not known
// before the fixpoint runs).
func writeStimulusDumps(cfg config, circ *seq.Circuit, inputProbs []float64, stderr io.Writer) error {
	core := circ.Core()
	probs := inputProbs
	if probs != nil && len(probs) < len(core.Inputs()) {
		padded := make([]float64, len(core.Inputs()))
		for i := range padded {
			padded[i] = 0.5
		}
		copy(padded, probs)
		probs = padded
	}
	opts := activity.DumpOptions{Words: cfg.words, Seed: cfg.seed, InputProbs: probs}
	write := func(path, kind string, dump func(io.Writer, *netlist.Netlist, activity.DumpOptions) (int, error)) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		n, err := dump(f, core, opts)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s stimulus (%d vectors, %d inputs) to %s\n",
			kind, n, len(core.Inputs()), path)
		return nil
	}
	if err := write(cfg.dumpVCDPath, "VCD", activity.DumpVCD); err != nil {
		return err
	}
	return write(cfg.dumpSAIFPath, "SAIF", activity.DumpSAIF)
}

// loadModel resolves the input circuit: a mapped BLIF file (-in) or a
// built-in benchmark (-circuit) compiled against the library.
func loadModel(cfg config, lib *cellib.Library) (*blif.Model, error) {
	switch {
	case cfg.inPath != "" && cfg.circuit != "":
		return nil, fmt.Errorf("use either -in or -circuit, not both")
	case cfg.inPath != "":
		f, err := os.Open(cfg.inPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return blif.ReadModel(f, lib)
	case cfg.circuit != "":
		if spec, err := circuits.ByName(cfg.circuit); err == nil {
			nl, err := synth.Compile(spec.Build(), lib, synth.Options{Mode: synth.CostPower})
			if err != nil {
				return nil, err
			}
			return &blif.Model{Netlist: nl, NumInputs: len(nl.Inputs()), NumOutputs: len(nl.Outputs())}, nil
		} else if spec, err := circuits.SeqByName(cfg.circuit); err == nil {
			return spec.Build(lib)
		}
		return nil, fmt.Errorf("unknown circuit %q (combinational: %v; sequential: %v)",
			cfg.circuit, circuits.Names(), circuits.SeqNames())
	default:
		return nil, fmt.Errorf("need -in FILE or -circuit NAME (see -h)")
	}
}

func run(ctx context.Context, cfg config, stdout, stderr io.Writer) error {
	if cfg.words <= 0 {
		return fmt.Errorf("-words must be positive, got %d", cfg.words)
	}
	if cfg.repeat <= 0 {
		return fmt.Errorf("-repeat must be positive, got %d", cfg.repeat)
	}
	if cfg.timeout < 0 {
		return fmt.Errorf("-timeout must not be negative, got %v", cfg.timeout)
	}
	if cfg.maxRetries < 0 {
		return fmt.Errorf("-max-retries must not be negative, got %d", cfg.maxRetries)
	}
	if cfg.cpuProfile != "" {
		stopProf, err := obs.StartCPUProfile(cfg.cpuProfile)
		if err != nil {
			return err
		}
		defer stopProf()
	}

	lib := cellib.Lib2()
	if cfg.libPath != "" {
		f, err := os.Open(cfg.libPath)
		if err != nil {
			return err
		}
		defer f.Close()
		lib, err = cellib.ParseGenlib(f)
		if err != nil {
			return err
		}
	}

	model, err := loadModel(cfg, lib)
	if err != nil {
		return err
	}

	if cfg.server != "" {
		// Remote mode: ship the circuit to a powderd daemon. The model is
		// serialized back to BLIF so -circuit works remotely too.
		var buf bytes.Buffer
		if err := blif.WriteModel(&buf, model); err != nil {
			return err
		}
		return runRemote(ctx, cfg, buf.Bytes(), stdout, stderr)
	}

	circ, err := seq.FromModel(model)
	if err != nil {
		return err
	}
	nl := model.Netlist
	if cfg.vlogPath != "" && circ.Model.Sequential() {
		return fmt.Errorf("-verilog does not support sequential circuits yet; use -out for latch-aware BLIF")
	}

	// Per-primary-input probabilities (combinational: every input;
	// sequential: the true inputs, with state lines ruled by the fixpoint).
	var inputProbs []float64
	if cfg.probsPath != "" {
		f, err := os.Open(cfg.probsPath)
		if err != nil {
			return err
		}
		entries, err := seq.ParseProbs(f)
		f.Close()
		if err != nil {
			return err
		}
		inputProbs, err = seq.ResolveProbs(entries, circ)
		if err != nil {
			return err
		}
	}

	// Stimulus dumps are written from the *input* netlist, before any
	// substitution, so the emitted workload describes the circuit the
	// user submitted.
	if cfg.dumpVCDPath != "" || cfg.dumpSAIFPath != "" {
		if err := writeStimulusDumps(cfg, circ, inputProbs, stderr); err != nil {
			return err
		}
	}

	// A workload activity dump replaces the uniform assumption: matched
	// inputs get measured probabilities, and measured transition
	// densities pin E(i) at the PIs (and across the register cut).
	var binding *activity.Binding
	var activityLabel string
	if cfg.activityPath != "" {
		if cfg.probsPath != "" {
			return fmt.Errorf("use either -probs or -activity, not both (the dump already carries input probabilities)")
		}
		var err error
		binding, activityLabel, err = loadActivity(cfg, circ, stderr)
		if err != nil {
			return err
		}
	}

	sink, reg, closeTrace, err := buildSink(cfg, stderr)
	if err != nil {
		return err
	}
	defer closeTrace()

	// The span tracer rides the context: the engine's "optimize" span is
	// the trace root, so its duration is the optimization wall time. Its
	// span ends are the run's events: they feed -trace-json and -v.
	var tracer *trace.Tracer
	if cfg.tracePerfetto != "" || sink != nil {
		tracer = trace.New(nl.Name, trace.Options{
			Obs:         sink,
			DropCounter: reg.Counter("trace.dropped.spans"),
		})
		ctx = trace.NewContext(ctx, tracer)
	}

	opts := core.Options{
		DelayConstraint:  cfg.delayAbs,
		DelayFactor:      cfg.delayFactor,
		Repeat:           cfg.repeat,
		PreselectK:       cfg.preselect,
		MaxSubstitutions: cfg.maxSubs,
		MaxRetries:       cfg.maxRetries,
		Parallelism:      cfg.par,
		Timeout:          cfg.timeout,
		CheckBudget:      cfg.budget,
		Power:            power.Options{Words: cfg.words, Seed: cfg.seed},
		Transform:        transform.Config{AllowInverted: cfg.inverted},
		Activity:         activityLabel,
	}

	var original *netlist.Netlist
	if cfg.verify {
		original = nl.Clone()
	}

	if circ.Model.Sequential() {
		fmt.Fprintf(stderr, "sequential circuit: %d latches, cutting at the register boundary\n", circ.NumLatches())
	}
	sres, err := seq.OptimizeCtx(ctx, circ, seq.Options{
		Core: opts,
		Fixpoint: seq.FixpointOptions{
			Tol:        cfg.fixTol,
			MaxIter:    cfg.fixMaxIter,
			Damping:    cfg.fixDamping,
			InputProbs: inputProbs,
		},
		Activity: binding,
	})
	seq.RecordMetrics(reg, sres, err)
	if err != nil {
		return err
	}
	if fp := sres.Fixpoint; fp != nil {
		fmt.Fprintf(stderr, "steady-state fixpoint: %d iterations, residual %.3g\n", fp.Iterations, fp.Residual)
	}
	res := sres.Core

	// The final metrics block: phase breakdown plus the registry snapshot,
	// emitted as the last JSONL record and/or printed to stderr.
	if reg != nil {
		snap := reg.Snapshot()
		if sink != nil {
			sink.Emit(obs.Event{Time: time.Now(), Name: "metrics", Fields: obs.Fields{
				"phases":          res.Phases.Map(),
				"phase_seconds":   res.Phases.Seconds(),
				"runtime_seconds": res.Runtime.Seconds(),
				"rejects":         res.Rejects,
				"counters":        snap.Counters,
				"histograms":      snap.Histograms,
			}})
		}
		if cfg.metrics {
			fmt.Fprintf(stderr, "phases: %s\n", res.Phases)
			snap.WriteText(stderr)
		}
	}

	if cfg.tracePerfetto != "" {
		f, err := os.Create(cfg.tracePerfetto)
		if err != nil {
			return err
		}
		spans := tracer.Snapshot()
		werr := trace.WritePerfetto(f, spans)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Fprintf(stderr, "wrote trace to %s (%d spans, %d dropped)\n",
			cfg.tracePerfetto, len(spans), tracer.Dropped())
	}

	if cfg.ledgerJSON != "" {
		data, err := json.MarshalIndent(res.Ledger, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.ledgerJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote ledger to %s\n", cfg.ledgerJSON)
	}

	if cfg.report {
		core.WriteReport(stdout, nl.Name, res)
	} else {
		fmt.Fprintf(stdout, "circuit: %s\n", nl.Name)
		fmt.Fprintf(stdout, "  power: %10.3f -> %10.3f  (%.1f%% reduction)\n",
			res.Initial.Power, res.Final.Power, res.PowerReductionPct())
		fmt.Fprintf(stdout, "  area:  %10.0f -> %10.0f  (%+.1f%%)\n",
			res.Initial.Area, res.Final.Area, res.AreaChangePct())
		fmt.Fprintf(stdout, "  delay: %10.2f -> %10.2f", res.InitialDelay, res.FinalDelay)
		if res.Constraint > 0 {
			fmt.Fprintf(stdout, "  (constraint %.2f)", res.Constraint)
		}
		fmt.Fprintln(stdout)
		fmt.Fprintf(stdout, "  gates: %10d -> %10d\n", res.Initial.Gates, res.Final.Gates)
		fmt.Fprintf(stdout, "  substitutions: %d (OS2 %d, IS2 %d, OS3 %d, IS3 %d) in %s\n",
			res.Applied,
			res.ByClass[transform.OS2].Count, res.ByClass[transform.IS2].Count,
			res.ByClass[transform.OS3].Count, res.ByClass[transform.IS3].Count,
			res.Runtime.Round(1e6))
		fmt.Fprintf(stdout, "  permissibility checks: %s\n", res.CheckStats)
		if res.Escalation.Retries > 0 {
			fmt.Fprintf(stdout, "  budget escalations: %d retries (%d proven, %d refuted, %d exhausted)\n",
				res.Escalation.Retries, res.Escalation.Permissible,
				res.Escalation.Refuted, res.Escalation.Exhausted)
		}
		if rb := res.Rejects[core.RejectRollback]; rb > 0 {
			fmt.Fprintf(stdout, "  rollbacks: %d\n", rb)
		}
		if p := res.Parallel; p != nil {
			fmt.Fprintf(stdout, "  parallel: %d workers, %d rounds, %d regions, %d proposals (%d conflicts, %d replays)\n",
				p.Workers, p.Rounds, p.Regions, p.Proposals, p.Conflicts, p.Replays)
		}
		if res.StoppedEarly() {
			fmt.Fprintf(stdout, "  stopped early: %s (the emitted netlist is the best verified result so far)\n", res.Stopped)
		}
	}

	if cfg.resize {
		rr, err := resize.Optimize(nl, resize.Options{
			DelayConstraint: res.Constraint,
			Power:           power.Options{Words: cfg.words, Seed: cfg.seed},
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  %s\n", rr)
	}

	if cfg.verify {
		eq, err := atpg.Equivalent(original, nl, 0)
		if err != nil {
			return err
		}
		switch eq.Verdict {
		case atpg.Permissible:
			fmt.Fprintln(stdout, "  verify: optimized circuit proven equivalent to the original")
		case atpg.NotPermissible:
			return fmt.Errorf("VERIFICATION FAILED: output %q differs on %v",
				eq.DifferingOutput, eq.Counterexample)
		default:
			fmt.Fprintln(stdout, "  verify: inconclusive (budget exhausted)")
		}
	}

	if cfg.outPath != "" {
		f, err := os.Create(cfg.outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := blif.WriteModel(f, model); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  wrote %s\n", cfg.outPath)
	}
	if cfg.vlogPath != "" {
		f, err := os.Create(cfg.vlogPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := verilog.Write(f, nl, verilog.Options{EmitPrimitives: true}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  wrote %s\n", cfg.vlogPath)
	}

	if cfg.memProfile != "" {
		if err := obs.WriteHeapProfile(cfg.memProfile); err != nil {
			return err
		}
	}
	return nil
}
