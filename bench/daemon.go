package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"powder/internal/activity"
	"powder/internal/blif"
	"powder/internal/cellib"
	"powder/internal/client"
	"powder/internal/netlist"
	"powder/internal/obs/trace"
	"powder/internal/power"
	"powder/internal/service"
	"powder/internal/sta"
)

const (
	// daemonClients is the closed loop's size: each client goroutine has
	// its own connection and sends its next submission only after the
	// previous one's result arrived, as callers waiting for a reply do.
	// Two matches the gomaxprocs cores the daemon's two workers run on.
	daemonClients = 2
	// pollInterval spaces the status polls of a submission that missed the
	// cache.
	pollInterval = 5 * time.Millisecond
	// extraStarts is how many additional daemon starts a run times before
	// every rep and after the last, so setup_s is a median over more than
	// the rep count, taken at the host speeds the reps see.
	extraStarts = 3
	// stopTimeout bounds a daemon's graceful drain before it is killed.
	stopTimeout = 15 * time.Second
)

// daemonBench runs the daemon workload inside the child: a fresh powderd
// per rep, driven through internal/client.
type daemonBench struct {
	in    *inputSet
	files map[string][]byte
	lib   *cellib.Library
	bin   string
	dir   string
	// origs and bindings are the submitted circuits as the oracle reads
	// them, with each circuit's activity binding.
	origs    []*netlist.Netlist
	bindings []*activity.Binding
}

// daemon is one running powderd process.
type daemon struct {
	cmd    *exec.Cmd
	log    *os.File
	base   string
	exited chan struct{}
	err    error
}

// start launches powderd on a free loopback port with a fresh store and
// returns once /healthz answers 200, with the time that took.
func (d *daemonBench) start(ctx context.Context, storeDir string) (*daemon, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(storeDir + ".log")
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(d.bin, "-addr", addr, "-workers", "2", "-store-dir", storeDir)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start powderd: %w", err)
	}
	dm := &daemon{cmd: cmd, log: logf, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		dm.err = cmd.Wait()
		close(dm.exited)
	}()
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(dm.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return dm, time.Since(start), nil
			}
		}
		select {
		case <-dm.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("powderd exited before serving: %v (log %s)", dm.err, logf.Name())
		case <-ctx.Done():
			dm.stop()
			return nil, 0, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > 30*time.Second {
			dm.stop()
			return nil, 0, errors.New("powderd did not become healthy within 30s")
		}
	}
}

// stop drains the daemon with SIGTERM, kills it if the drain overruns,
// and waits for the process to end. It is safe to call twice.
func (dm *daemon) stop() {
	select {
	case <-dm.exited:
		return
	default:
	}
	_ = dm.cmd.Process.Signal(syscall.SIGTERM) // the process may already be gone
	select {
	case <-dm.exited:
	case <-time.After(stopTimeout):
		_ = dm.cmd.Process.Kill()
		<-dm.exited
	}
	dm.log.Close()
}

// submission is one submitted key's outcome as its client saw it.
type submission struct {
	key    int
	start  time.Time
	end    time.Time
	submit time.Duration
	polls  int
	status service.Status
	blif   []byte
	err    error
}

// daemonRep is one daemon lifetime: start, warm-up, a miss phase that
// submits every key once, a hit phase that submits keys again, stop. The
// phases do not overlap, so a hit never waits behind an engine run.
type daemonRep struct {
	setup float64
	// wall is the miss phase, first submit to last result.
	wall         float64
	misses, hits []submission
	rssMB        float64
	entries      float64
	// trips counts HTTP round trips and requests the client calls made.
	trips, requests int64
}

// countingTransport counts the HTTP round trips under the client, so
// retries show up as attempts per request.
type countingTransport struct {
	base  http.RoundTripper
	trips atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.trips.Add(1)
	return t.base.RoundTrip(r)
}

// rep starts a daemon, warms it up and runs both phases against it.
func (d *daemonBench) rep(ctx context.Context, k int, tr *trace.Tracer, parent *trace.Span) (*daemonRep, error) {
	sp := child(tr, "rep", parent)
	defer sp.End()
	s := child(tr, "powderd.start", sp)
	dm, setup, err := d.start(ctx, filepath.Join(d.dir, fmt.Sprintf("store-%d", k)))
	s.End()
	if err != nil {
		return nil, err
	}
	defer dm.stop()
	r := &daemonRep{setup: setup.Seconds()}

	// Untimed warm-up: one uncached optimization of comp.
	s = child(tr, "powderd.warmup", sp)
	warm := client.New(dm.base, client.Options{})
	st, err := warm.Submit(ctx, d.files[d.in.Warmup], url.Values{"no-cache": {"1"}})
	if err == nil {
		_, err = warm.Wait(ctx, st.ID, pollInterval)
	}
	s.End()
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	transports := make([]*countingTransport, daemonClients)
	for c := range transports {
		transports[c] = &countingTransport{base: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	r.misses, r.wall = d.phase(ctx, dm.base, transports, "misses", d.in.Misses, tr, sp)
	r.hits, _ = d.phase(ctx, dm.base, transports, "hits", d.in.Hits, tr, sp)
	for _, t := range transports {
		r.trips += t.trips.Load()
		t.base.(*http.Transport).CloseIdleConnections()
	}
	// Submit, the status polls and the result download.
	for _, s := range slices.Concat(r.misses, r.hits) {
		r.requests += int64(2 + s.polls)
	}

	s = child(tr, "powderd.metrics", sp)
	r.entries, err = scrapeGauge(ctx, dm.base, "powder_store_cache_entries")
	s.End()
	if err != nil {
		return nil, err
	}
	if r.rssMB, err = peakRSSMB(strconv.Itoa(dm.cmd.Process.Pid)); err != nil {
		return nil, err
	}
	return r, nil
}

// phase submits keys through the closed loop, one client per transport:
// each client takes the next key once its previous one's result arrived.
// It returns the outcomes in key order and the seconds from the first
// submit to the last result.
func (d *daemonBench) phase(ctx context.Context, base string, transports []*countingTransport, name string, keys []int, tr *trace.Tracer, parent *trace.Span) ([]submission, float64) {
	subs := make([]submission, len(keys))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c, t := range transports {
		cl := client.New(base, client.Options{HTTPClient: &http.Client{Transport: t}})
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane := child(tr, name, parent)
			lane.SetTrack(fmt.Sprintf("client-%d", c+1))
			defer lane.End()
			for i := int(next.Add(1) - 1); i < len(keys); i = int(next.Add(1) - 1) {
				subs[i] = d.submit(ctx, cl, keys[i], tr, lane)
			}
		}()
	}
	wg.Wait()
	last := start
	for _, s := range subs {
		if s.end.After(last) {
			last = s.end
		}
	}
	return subs, last.Sub(start).Seconds()
}

// submit sends one key and waits for its result the way a caller does:
// submit, poll until the job is terminal, download the result.
func (d *daemonBench) submit(ctx context.Context, cl *client.Client, key int, tr *trace.Tracer, lane *trace.Span) submission {
	k := d.in.Keys[key]
	c := d.in.Circuits[k.Circuit]
	q := url.Values{"verify": {"1"}}
	if k.Constrained {
		q.Set("delay-limit", "0")
	}
	s := submission{key: key, start: time.Now()}
	sp := child(tr, "client.Submit", lane)
	if k.Activity {
		s.status, s.err = cl.SubmitActivity(ctx, d.files[c.BLIF], d.files[c.VCD], q)
	} else {
		s.status, s.err = cl.Submit(ctx, d.files[c.BLIF], q)
	}
	sp.End()
	s.submit = time.Since(s.start)
	for s.err == nil && !s.status.State.Terminal() {
		// The caller's wait on a running job: the service's time, which
		// the spans inside powderd would break down.
		sp = child(tr, "client.poll_wait", lane)
		select {
		case <-ctx.Done():
			s.err = ctx.Err()
		case <-time.After(pollInterval):
		}
		sp.End()
		if s.err != nil {
			break
		}
		sp = child(tr, "client.Status", lane)
		s.status, s.err = cl.Status(ctx, s.status.ID)
		sp.End()
		s.polls++
	}
	if s.err == nil && s.status.State == service.StateCompleted {
		sp = child(tr, "client.ResultBLIF", lane)
		s.blif, s.err = cl.ResultBLIF(ctx, s.status.ID)
		sp.End()
	}
	s.end = time.Now()
	return s
}

// scrapeGauge reads one unlabeled series from the daemon's /metrics.
func scrapeGauge(ctx context.Context, base, name string) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}

// prepare parses the submitted circuits and their activity for the
// oracle, outside any timed section.
func (d *daemonBench) prepare() error {
	for _, c := range d.in.Circuits {
		nl, err := blif.Read(bytes.NewReader(d.files[c.BLIF]), d.lib)
		if err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
		b, err := bindActivity(d.files[c.VCD], nl, nil, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
		d.origs = append(d.origs, nl)
		d.bindings = append(d.bindings, b)
	}
	return nil
}

// powerOptions are the power options powderd runs a key under.
func (d *daemonBench) powerOptions(k daemonKey) power.Options {
	if !k.Activity {
		return power.Options{}
	}
	b := d.bindings[k.Circuit]
	return power.Options{InputProbs: b.Probs, InputToggles: b.Toggles}
}

// check runs the oracle over a rep's submissions, counts them in r, and
// returns the rep's power reduction over its cache misses as powderd
// reported it and as re-estimated on held-out vectors.
func (d *daemonBench) check(r *report, rep *daemonRep) (reduction, heldout float64) {
	missBLIF := map[int][]byte{}
	var before, after, hBefore, hAfter float64
	for i, s := range rep.misses {
		r.Attempted++
		name := d.subName(r, "miss", i, s.key)
		if bad := d.submissionChecks(s); len(bad) > 0 {
			r.fail(name, bad...)
			continue
		}
		missBLIF[s.key] = s.blif
		jr := s.status.Result
		before += jr.InitialPower
		after += jr.FinalPower
		k := d.in.Keys[s.key]
		res, err := blif.Read(bytes.NewReader(s.blif), d.lib)
		if err == nil {
			res, err = relabel(d.origs[k.Circuit], res)
		}
		if err != nil {
			r.fail(name, "result: "+err.Error())
			continue
		}
		if bad := d.resultChecks(k, res, jr, r.Seed); len(bad) > 0 {
			r.fail(name, bad...)
		}
		ho := heldoutOptions(d.powerOptions(k), r.Seed)
		hBefore += power.Estimate(d.origs[k.Circuit], ho).Total()
		hAfter += power.Estimate(res, ho).Total()
	}
	for i, s := range rep.hits {
		r.Attempted++
		name := d.subName(r, "hit", i, s.key)
		if bad := d.submissionChecks(s); len(bad) > 0 {
			r.fail(name, bad...)
			continue
		}
		if miss, ok := missBLIF[s.key]; !ok || !bytes.Equal(miss, s.blif) {
			r.fail(name, "cache hit differs from the miss of the same key")
		}
	}
	return pct(before, after), pct(hBefore, hAfter)
}

// subName names the i-th submission of a phase of the current rep in
// failure reports.
func (d *daemonBench) subName(r *report, phase string, i, key int) string {
	return fmt.Sprintf("%s %d rep %d (%s)", phase, i, r.Reps, d.keyName(key))
}

// submissionChecks covers what the daemon's own answer must say.
func (d *daemonBench) submissionChecks(s submission) []string {
	switch {
	case s.err != nil:
		return []string{s.err.Error()}
	case s.status.State != service.StateCompleted:
		return []string{fmt.Sprintf("state %s: %s", s.status.State, s.status.Error)}
	case s.status.Result == nil:
		return []string{"completed without a result"}
	}
	var bad []string
	if jr := s.status.Result; jr.Stopped != "completed" {
		bad = append(bad, "stopped: "+jr.Stopped)
	} else if jr.Verified != "equivalent" {
		bad = append(bad, "verified: "+jr.Verified)
	}
	return bad
}

// resultChecks runs the output oracle on a cache miss's result netlist.
func (d *daemonBench) resultChecks(k daemonKey, res *netlist.Netlist, jr *service.JobResult, seed int64) []string {
	orig := d.origs[k.Circuit]
	var bad []string
	if msg := equivalent(orig, res, nil, seed); msg != "" {
		bad = append(bad, msg)
	}
	popts := d.powerOptions(k)
	if est := power.Estimate(orig, popts).Total(); !closeTo(jr.InitialPower, est) {
		bad = append(bad, fmt.Sprintf("initial power %.12g, fresh estimate %.12g", jr.InitialPower, est))
	}
	if est := power.Estimate(res, popts).Total(); !closeTo(jr.FinalPower, est) {
		bad = append(bad, fmt.Sprintf("final power %.12g, fresh estimate %.12g", jr.FinalPower, est))
	}
	if k.Constrained {
		want := sta.New(orig, 0).Delay()
		if dl := sta.New(res, 0).Delay(); dl > want+1e-9 {
			bad = append(bad, fmt.Sprintf("final delay %.6g exceeds constraint %.6g", dl, want))
		}
	}
	return bad
}

func (d *daemonBench) keyName(key int) string {
	k := d.in.Keys[key]
	name := d.in.Circuits[k.Circuit].Name
	if k.Constrained {
		name += " delay-limit=0"
	}
	if k.Activity {
		name += " +vcd"
	}
	return name
}

// timeStarts starts and stops extraStarts daemons, each on a fresh store,
// and appends the seconds each took to serve.
func (d *daemonBench) timeStarts(ctx context.Context, setups []float64) ([]float64, error) {
	for i := 0; i < extraStarts; i++ {
		dm, s, err := d.start(ctx, filepath.Join(d.dir, fmt.Sprintf("start-%d", len(setups))))
		if err != nil {
			return nil, err
		}
		dm.stop()
		setups = append(setups, s.Seconds())
	}
	return setups, nil
}

// run measures the workload: reps until the next one would overrun the
// budget, with extra daemon starts for setup samples before each rep and
// after the last. A traced run instead makes one untraced and one traced
// rep, replays the cache-miss jobs in process for the engine's counters,
// and replays the kernels.
func (d *daemonBench) run(ctx context.Context, r *report, budget time.Duration) error {
	if err := d.prepare(); err != nil {
		return err
	}
	if r.Traced {
		return d.runTraced(ctx, r)
	}
	var setups, walls, lat, hits, misses, reds, helds, rss, entries, queue, run, submits []float64
	var polls, trips, requests int64
	cached := 0
	start := time.Now()
	var longest time.Duration
	var err error
	for r.Reps == 0 || time.Since(start)+longest <= budget {
		t := time.Now()
		if setups, err = d.timeStarts(ctx, setups); err != nil {
			return err
		}
		rep, err := d.rep(ctx, r.Reps, nil, nil)
		if err != nil {
			return err
		}
		setups = append(setups, rep.setup)
		walls = append(walls, rep.wall)
		rss = append(rss, rep.rssMB)
		entries = append(entries, rep.entries)
		trips += rep.trips
		requests += rep.requests
		for _, s := range rep.misses {
			if s.err != nil {
				continue
			}
			misses = append(misses, s.end.Sub(s.start).Seconds())
			submits = append(submits, s.submit.Seconds()*1e3)
			polls += int64(s.polls)
			if st := s.status; st.StartedAt != nil && st.FinishedAt != nil {
				queue = append(queue, st.StartedAt.Sub(st.SubmittedAt).Seconds()*1e3)
				run = append(run, st.FinishedAt.Sub(*st.StartedAt).Seconds()*1e3)
			}
		}
		var repLat []float64
		for _, s := range rep.hits {
			if s.err != nil {
				continue
			}
			secs := s.end.Sub(s.start).Seconds()
			repLat = append(repLat, secs*1e3)
			hits = append(hits, secs)
			submits = append(submits, s.submit.Seconds()*1e3)
			if s.status.Cached {
				cached++
			}
		}
		lat = append(lat, median(repLat))
		red, held := d.check(r, rep)
		reds = append(reds, red)
		helds = append(helds, held)
		r.Reps++
		longest = max(longest, time.Since(t))
	}
	if setups, err = d.timeStarts(ctx, setups); err != nil {
		return err
	}
	r.setSamples("setup_s", setups)
	r.setSamples("wall_s", walls)
	r.setSamples("latency_p50_ms", lat)
	r.setSamples("reduction_pct", reds)
	r.setSamples("heldout_reduction_pct", helds)
	// The median lifetime's peak. A lifetime's peak lands anywhere between
	// the live heap and twice that, depending on where the last GC fell;
	// the median over lifetimes varied less from run to run than their
	// largest (0.13 against 0.17 quartile spread over ten seeds).
	r.setSamples("peak_rss_mb", rss)
	r.latency("hit", hits)
	r.latency("miss", misses)
	r.extra("failed_frac", "ratio", ratio(r.Failed, r.Attempted), r.Attempted, "")
	r.extra("service.cache_hit_frac", "ratio", ratio(cached, len(hits)), len(hits), "hit phase")
	r.extra("service.queue_wait_ms", "ms", median(queue), len(queue), "misses")
	r.extra("service.run_ms", "ms", median(run), len(run), "misses")
	r.extra("client.submit_ms", "ms", median(submits), len(submits), "")
	r.extra("client.polls_per_miss", "count", float64(polls)/float64(max(len(misses), 1)), len(misses), "")
	r.extra("client.attempts_per_request", "ratio", float64(trips)/float64(max(requests, 1)), int(requests), "")
	r.extra("store.cache_entries", "count", median(entries), len(entries), "end of rep")
	return nil
}

// runTraced is the daemon's per-layer pass.
func (d *daemonBench) runTraced(ctx context.Context, r *report) error {
	u, err := d.rep(ctx, 0, nil, nil)
	if err != nil {
		return err
	}
	d.check(r, u)
	r.Reps++
	tr := trace.New(fmt.Sprintf("%s-seed%d-rep%d", r.Workload, r.Seed, r.Reps), trace.Options{Limit: 1 << 16})
	root := tr.Start("workload", 0)
	root.SetAttr("workload", r.Workload)
	t, err := d.rep(ctx, 1, tr, root)
	root.End()
	if err != nil {
		return err
	}
	d.check(r, t)
	r.Reps++
	r.set("trace.overhead_pct", 100*(t.wall-u.wall)/u.wall, 2)
	r.spans = tr.Snapshot()
	traceExtras(r, r.spans)

	// The engine's own counters: every cache-miss job once, in process,
	// under the options powderd runs it with.
	before := readMem()
	var ops []engineOp
	for i, k := range d.in.Keys {
		c := d.in.Circuits[k.Circuit]
		nl, err := blif.Read(bytes.NewReader(d.files[c.BLIF]), d.lib)
		if err != nil {
			return err
		}
		opts := workload{}.options()
		opts.Power = d.powerOptions(k)
		if k.Constrained {
			opts.DelayFactor = 1
		}
		ops = append(ops, runEngine(ctx, loaded{name: d.keyName(i), nl: nl, opts: opts}, nil, nil))
	}
	setMem(r, memSince(before))
	check(r, ops, r.Seed)
	layerMetrics(r, ops)

	ins := make([]kernelInput, len(d.origs))
	for i, nl := range d.origs {
		c := d.in.Circuits[i]
		ins[i] = kernelInput{nl: nl, opts: workload{}.options(), blif: d.files[c.BLIF], vcd: d.files[c.VCD]}
	}
	return kernelMetrics(r, ins, d.lib)
}
