package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"powder/internal/activity"
	"powder/internal/atpg"
	"powder/internal/blif"
	"powder/internal/cellib"
	"powder/internal/core"
	"powder/internal/netlist"
	"powder/internal/obs/trace"
	"powder/internal/power"
	"powder/internal/transform"
)

// A run times its set-up in setupBatches batches before every rep and
// after the last, each batch ingesting the inputs over and over for at
// least setupBatchMin, and reports the median batch's time per ingest. A
// batch spreads the cost of the garbage collections the ingests trigger
// evenly over them, where a single ingest would pay for a whole cycle or
// for none. Spreading the batches over the run makes them see the host at
// the speeds the reps see it: the host's speed wanders by tens of percent
// within seconds, and batches bunched into one moment caught just one.
const (
	setupBatches  = 3
	setupBatchMin = 40 * time.Millisecond
)

// engineBench runs one in-process engine workload inside the child.
type engineBench struct {
	w     workload
	in    *inputSet
	files map[string][]byte
	lib   *cellib.Library
}

// loaded is one circuit as the program took it in, with its run options.
type loaded struct {
	name string
	nl   *netlist.Netlist
	opts core.Options
}

// engineOp is one circuit's optimization and verification within a rep.
type engineOp struct {
	circuit string
	orig    *netlist.Netlist
	final   *netlist.Netlist
	opts    core.Options
	res     *core.Result
	eq      *atpg.EquivResult
	err     error
	// seconds covers optimization plus verification, as powder -verify
	// runs them; equivSeconds the verification alone.
	seconds      float64
	equivSeconds float64
}

// engineRep is one pass over every circuit of the workload.
type engineRep struct {
	wall float64
	ops  []engineOp
	mem  memDelta
}

// options are the engine options of the workload, before activity.
func (w workload) options() core.Options {
	return core.Options{
		Parallelism: w.Parallelism,
		DelayFactor: w.DelayFactor,
		Transform:   transform.Config{AllowInverted: true},
	}
}

// ingest is the program taking in its inputs: blif.Read of every circuit,
// plus activity.Read and Bind where the workload has a profile. It is
// what setup_s times.
func (e *engineBench) ingest(tr *trace.Tracer, parent *trace.Span) ([]loaded, error) {
	out := make([]loaded, 0, len(e.in.Circuits))
	for _, c := range e.in.Circuits {
		sp := child(tr, "blif.Read", parent)
		nl, err := blif.Read(bytes.NewReader(e.files[c.BLIF]), e.lib)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		opts := e.w.options()
		if c.VCD != "" {
			b, err := bindActivity(e.files[c.VCD], nl, tr, parent)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.Name, err)
			}
			opts.Power.InputProbs, opts.Power.InputToggles = b.Probs, b.Toggles
		}
		out = append(out, loaded{name: c.Name, nl: nl, opts: opts})
	}
	return out, nil
}

// bindActivity parses an activity dump and binds it onto nl's inputs.
func bindActivity(dump []byte, nl *netlist.Netlist, tr *trace.Tracer, parent *trace.Span) (*activity.Binding, error) {
	sp := child(tr, "activity.Read", parent)
	prof, err := activity.Read(bytes.NewReader(dump))
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = child(tr, "activity.Bind", parent)
	defer sp.End()
	return prof.Bind(inputNames(nl))
}

func inputNames(nl *netlist.Netlist) []string {
	names := make([]string, len(nl.Inputs()))
	for i, id := range nl.Inputs() {
		names[i] = nl.Node(id).Name()
	}
	return names
}

// rep takes in the inputs and optimizes and verifies every circuit. With a
// tracer it records a span around each call under parent.
func (e *engineBench) rep(ctx context.Context, tr *trace.Tracer, parent *trace.Span) (*engineRep, error) {
	before := readMem()
	sp := child(tr, "rep", parent)
	defer sp.End()
	circs, err := e.ingest(tr, sp)
	if err != nil {
		return nil, err
	}
	r := &engineRep{}
	for _, c := range circs {
		op := runEngine(ctx, c, tr, sp)
		r.wall += op.seconds
		r.ops = append(r.ops, op)
	}
	r.mem = memSince(before)
	return r, nil
}

// runEngine optimizes one circuit and verifies the result against a copy
// of the input, as powder -verify does.
func runEngine(ctx context.Context, c loaded, tr *trace.Tracer, parent *trace.Span) engineOp {
	op := engineOp{circuit: c.name, orig: c.nl.Clone(), final: c.nl, opts: c.opts}
	start := time.Now()
	sp := child(tr, "core.OptimizeCtx", parent)
	op.res, op.err = optimize(ctx, c.nl, c.opts)
	sp.End()
	verifyStart := time.Now()
	if op.err == nil {
		sp = child(tr, "atpg.Equivalent", parent)
		op.eq, op.err = verify(op.orig, c.nl)
		sp.End()
	}
	op.seconds = time.Since(start).Seconds()
	op.equivSeconds = time.Since(verifyStart).Seconds()
	return op
}

func optimize(ctx context.Context, nl *netlist.Netlist, opts core.Options) (res *core.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return core.OptimizeCtx(ctx, nl, opts)
}

func verify(orig, final *netlist.Netlist) (eq *atpg.EquivResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return atpg.Equivalent(orig, final, 0)
}

// check runs the output oracle and the held-out re-estimate over a rep's
// operations, counts them in r, and returns the rep's engine-reported and
// held-out power reductions in percent.
func check(r *report, ops []engineOp, seed int64) (reduction, heldout float64) {
	var before, after, hBefore, hAfter float64
	for _, op := range ops {
		r.Attempted++
		name := fmt.Sprintf("%s rep %d", op.circuit, r.Reps)
		if op.err != nil {
			r.fail(name, op.err.Error())
			continue
		}
		if bad := engineChecks(op.orig, op.final, op.res, op.opts, op.eq, seed); len(bad) > 0 {
			r.fail(name, bad...)
		}
		before += op.res.Initial.Power
		after += op.res.Final.Power
		ho := heldoutOptions(op.opts.Power, seed)
		hBefore += power.Estimate(op.orig, ho).Total()
		hAfter += power.Estimate(op.final, ho).Total()
	}
	return pct(before, after), pct(hBefore, hAfter)
}

func pct(before, after float64) float64 {
	if before == 0 {
		return 0
	}
	return 100 * (before - after) / before
}

// warmup runs one untimed optimization of comp, so the timed reps do not
// pay for first-touch page faults and lazy initialization.
func (e *engineBench) warmup(ctx context.Context) error {
	nl, err := blif.Read(bytes.NewReader(e.files[e.in.Warmup]), e.lib)
	if err != nil {
		return err
	}
	_, err = optimize(ctx, nl, workload{}.options())
	return err
}

// timeSetup appends the seconds per ingest of setupBatches batches.
func (e *engineBench) timeSetup(setups []float64) ([]float64, error) {
	for b := 0; b < setupBatches; b++ {
		start := time.Now()
		n := 0
		for ; n == 0 || time.Since(start) < setupBatchMin; n++ {
			if _, err := e.ingest(nil, nil); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(start).Seconds()/float64(n))
	}
	return setups, nil
}

// run measures the workload: untimed warm-up, then reps until the next one
// would overrun the budget, with setup samples before each rep and after
// the last. A traced run instead makes one untraced and one traced rep and
// replays the kernels.
func (e *engineBench) run(ctx context.Context, r *report, budget time.Duration) error {
	if err := e.warmup(ctx); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if r.Traced {
		return e.runTraced(ctx, r)
	}
	var setups, walls, lat, reds, helds []float64
	phases := map[string]float64{}
	var par []*core.ParallelStats
	start := time.Now()
	var longest time.Duration
	var err error
	for r.Reps == 0 || time.Since(start)+longest <= budget {
		t := time.Now()
		if setups, err = e.timeSetup(setups); err != nil {
			return err
		}
		rep, err := e.rep(ctx, nil, nil)
		if err != nil {
			return err
		}
		walls = append(walls, rep.wall)
		repLat := make([]float64, len(rep.ops))
		for i, op := range rep.ops {
			repLat[i] = op.seconds * 1e3
			if op.res != nil {
				addPhases(phases, op.res)
				if op.res.Parallel != nil {
					par = append(par, op.res.Parallel)
				}
			}
		}
		lat = append(lat, median(repLat))
		red, held := check(r, rep.ops, r.Seed)
		reds = append(reds, red)
		helds = append(helds, held)
		r.Reps++
		longest = max(longest, time.Since(t))
	}
	if setups, err = e.timeSetup(setups); err != nil {
		return err
	}
	r.setSamples("setup_s", setups)
	r.setSamples("wall_s", walls)
	r.setSamples("latency_p50_ms", lat)
	r.setSamples("reduction_pct", reds)
	r.setSamples("heldout_reduction_pct", helds)
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss, 1)
	r.Phases = phases
	r.extra("failed_frac", "ratio", ratio(r.Failed, r.Attempted), r.Attempted, "")
	if len(par) > 0 {
		parallelExtras(r, par)
	}
	return nil
}

// runTraced makes one untraced rep and one traced rep, then replays the
// kernels on fresh copies of the initial netlists.
func (e *engineBench) runTraced(ctx context.Context, r *report) error {
	u, err := e.rep(ctx, nil, nil)
	if err != nil {
		return err
	}
	check(r, u.ops, r.Seed)
	r.Reps++
	tr := trace.New(fmt.Sprintf("%s-seed%d-rep%d", r.Workload, r.Seed, r.Reps), trace.Options{Limit: 1 << 16})
	root := tr.Start("workload", 0)
	root.SetAttr("workload", r.Workload)
	t, err := e.rep(ctx, tr, root)
	root.End()
	if err != nil {
		return err
	}
	check(r, t.ops, r.Seed)
	r.Reps++
	layerMetrics(r, t.ops)
	setMem(r, t.mem)
	r.set("trace.overhead_pct", 100*(t.wall-u.wall)/u.wall, 2)
	r.spans = tr.Snapshot()
	traceExtras(r, r.spans)

	circs, err := e.ingest(nil, nil)
	if err != nil {
		return err
	}
	ins := make([]kernelInput, len(circs))
	for i, c := range circs {
		ins[i] = kernelInput{nl: c.nl, opts: c.opts, blif: e.files[e.in.Circuits[i].BLIF], vcd: e.files[e.in.Circuits[i].VCD]}
		if ins[i].vcd == nil {
			var buf bytes.Buffer
			if _, err := activity.DumpVCD(&buf, c.nl, activity.DumpOptions{Seed: 1}); err != nil {
				return err
			}
			ins[i].vcd = buf.Bytes()
		}
	}
	return kernelMetrics(r, ins, e.lib)
}

// kernelMetrics replays the kernels and records their metrics.
func kernelMetrics(r *report, ins []kernelInput, lib *cellib.Library) error {
	minDur := kernelMin
	if r.Smoke {
		minDur = smokeKernelMin
	}
	m, err := replayKernels(ins, r.Seed, lib, minDur)
	if err != nil {
		return err
	}
	for name, v := range m {
		r.set(name, v, 1)
	}
	return nil
}

// layerMetrics records the engine's own counters, summed over the traced
// rep's runs, and the verification time per run.
func layerMetrics(r *report, ops []engineOp) {
	phases := map[string]float64{}
	var cands, stale, applied, checks int
	var conflicts int64
	var equiv float64
	n := 0
	for _, op := range ops {
		if op.res == nil {
			continue
		}
		n++
		addPhases(phases, op.res)
		cands += op.res.Candidates
		stale += op.res.Rejects[core.RejectStale]
		applied += op.res.Applied
		checks += op.res.CheckStats.Checks
		conflicts += op.res.CheckStats.Conflicts
		equiv += op.equivSeconds
	}
	for _, p := range []string{"ab-analysis", "atpg-check", "pgc-reestimate", "preselect", "harvest"} {
		r.set("core.phase."+p+"_s", phases[p], n)
	}
	for _, p := range []string{"delay-check", "par-workers", "par-commit"} {
		if v, ok := phases[p]; ok {
			r.extra("core.phase."+p+"_s", "s", v, n, "")
		}
	}
	r.set("core.candidates", float64(cands), n)
	r.set("core.stale_frac", ratio(stale, cands), n)
	r.set("core.applied_per_check", ratio(applied, checks), n)
	r.set("sat.conflicts_per_check", float64(conflicts)/float64(max(checks, 1)), n)
	r.set("atpg.equiv_ms", equiv/float64(max(n, 1))*1e3, n)
	r.Phases = phases
}

func addPhases(dst map[string]float64, res *core.Result) {
	for _, p := range res.Phases {
		dst[p.Name] += p.Seconds
	}
}

// parallelExtras records the region engine's scheduling statistics.
func parallelExtras(r *report, par []*core.ParallelStats) {
	var busy, commit, conflicts, replays, skew float64
	for _, p := range par {
		if p.ParallelSeconds > 0 {
			busy += p.WorkerBusySeconds / (float64(p.Workers) * p.ParallelSeconds)
		}
		commit += p.CommitSeconds
		conflicts += float64(p.Conflicts)
		replays += float64(p.Replays)
		skew = max(skew, p.MaxBarrierSkewSeconds)
	}
	n := float64(len(par))
	r.extra("core.par.busy_frac", "ratio", busy/n, len(par), "mean over runs")
	r.extra("core.par.commit_s", "s", commit/n, len(par), "mean per run")
	r.extra("core.par.conflicts", "count", conflicts/n, len(par), "mean per run")
	r.extra("core.par.replays", "count", replays/n, len(par), "mean per run")
	r.extra("core.par.barrier_skew_s", "s", skew, len(par), "max")
}

// traceExtras records each span name's self time and the share of the
// traced time the layer spans account for.
func traceExtras(r *report, recs []trace.Record) {
	r.SelfTimes = selfTimes(recs)
	for name, s := range r.SelfTimes {
		r.extra("trace.self."+name+"_s", "s", s, 1, "")
	}
	r.extra("trace.layer_cover_pct", "%", 100*layerCover(recs), len(recs), "layer spans over traced time")
}

// memDelta is the Go runtime's allocation and GC activity over a span.
type memDelta struct {
	allocBytes, mallocs, gcCycles uint64
	gcPause                       time.Duration
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// memSince returns the runtime's activity since the before snapshot.
func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		mallocs:    after.Mallocs - before.Mallocs,
		gcCycles:   uint64(after.NumGC - before.NumGC),
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}

func setMem(r *report, m memDelta) {
	r.set("go.alloc_mb", float64(m.allocBytes)/(1<<20), 1)
	r.set("go.mallocs", float64(m.mallocs), 1)
	r.set("go.gc_cycles", float64(m.gcCycles), 1)
	r.set("go.gc_pause_ms", m.gcPause.Seconds()*1e3, 1)
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MB; pid
// "self" is the calling process.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	var kb float64
	for _, line := range bytes.Split(data, []byte("\n")) {
		if _, err := fmt.Sscanf(string(line), "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
