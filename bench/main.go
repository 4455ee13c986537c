// Command bench is the repository benchmark. It generates its inputs from
// a seed, runs powder on them through the program's public entry points
// (blif.Read, activity.Read and Bind, core.OptimizeCtx, atpg.Equivalent,
// and the powderd binary through internal/client), checks every output,
// and prints every metric by name with its unit and sample count. The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
//
// Usage, from the repository root (bench/run.sh builds the binaries):
//
//	bash bench/run.sh --workload heavy-seq --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh -seed 1             # every workload, untraced then traced
//	bash bench/run.sh -smoke              # comp+clip in every shape, one rep
//	bash bench/run.sh compare A.json B.json
//
// Each workload runs in a child process of its own, so its peak RSS and
// GC counters are its own; input generation happens in the parent and is
// not timed. README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"powder/internal/cellib"
	"powder/internal/obs/trace"
)

// childEnv marks the process as a workload child.
const childEnv = "POWDER_BENCH_CHILD"

// childGrace is how long a child may run past its measurement budget
// (warm-up, setup samples, checks, a traced pass's replays) before it is
// stopped; with the stop's own grace the benchmark ends well within three
// minutes of a 30-second budget.
const childGrace = 90 * time.Second

// gomaxprocs is the GOMAXPROCS of every workload child and of powderd, so
// heavy-par2's two regions and the daemon's two workers get two cores on
// any host; NumCPU is recorded beside it.
const gomaxprocs = 2

func main() {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:], os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	seed    int64
	seconds int
	smoke   bool
	powderd string
	results string
	work    string
}

// benchMain runs the benchmark or the compare subcommand and returns the
// exit code: 0 when every output checked out, 1 when one did not or the
// run broke, 2 on bad usage.
func benchMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	name := fs.String("workload", "", "workload to run: heavy-seq, heavy-par2, pose-biased or daemon-mixed (default: all four)")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed; seed 2 is reserved as the held-out seed for claims")
	fs.IntVar(&cfg.seconds, "seconds", 30, "measurement budget of one run, in seconds")
	traceFlag := fs.Int("trace", -1, "1: traced pass, per-layer metrics; 0: untraced pass, end-to-end metrics; -1: both")
	fs.BoolVar(&cfg.smoke, "smoke", false, "run comp and clip in every workload shape at one rep")
	fs.StringVar(&cfg.powderd, "powderd", "", "powderd binary (default: powderd next to this executable)")
	fs.StringVar(&cfg.results, "results", filepath.Join("bench", "results"), "directory for raw results and Perfetto traces")
	fs.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "work"), "scratch directory for generated inputs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *traceFlag < -1 || *traceFlag > 1 || cfg.seconds < 0 {
		fs.Usage()
		return 2
	}
	if cfg.smoke {
		cfg.seconds = 0
	}
	if cfg.powderd == "" {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		cfg.powderd = filepath.Join(filepath.Dir(exe), "powderd")
	}
	names := []string{*name}
	if *name == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	passes := []bool{false, true}
	if *traceFlag >= 0 {
		passes = []bool{*traceFlag == 1}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(cfg.results, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var reports []*report
	for _, n := range names {
		if _, err := findWorkload(n, cfg.smoke); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		for _, traced := range passes {
			r, err := runWorkload(ctx, cfg, n, traced, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", n, err)
				return 1
			}
			r.print(stdout)
			reports = append(reports, r)
		}
	}
	if len(reports) > 1 {
		path := filepath.Join(cfg.results, fmt.Sprintf("set-seed%d-%s.json", cfg.seed, stamp()))
		if err := writeJSON(path, resultSet{Reports: reports}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stderr, "bench: results set", path)
	}
	line, ok := summary(reports)
	fmt.Fprintln(stdout, line)
	if !ok {
		return 1
	}
	return 0
}

// resultSet is the results file of a multi-workload invocation.
type resultSet struct {
	Reports []*report `json:"reports"`
}

func stamp() string { return time.Now().UTC().Format("20060102T150405.000Z") }

// summary renders the closing JSON line. With one report the metric names
// are as in BENCHMARK.json; with several they are prefixed by workload.
func summary(reports []*report) (string, bool) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Metrics: map[string]metric{}}
	for _, r := range reports {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for name, m := range r.Metrics {
			if len(reports) > 1 {
				name = r.Workload + "." + name
			}
			out.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
		}
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	data, err := json.Marshal(out)
	if err != nil {
		return fmt.Sprintf(`{"correct": false, "attempted": 1, "failed": 1, "metrics": {}, "error": %q}`, err), false
	}
	return string(data), out.Correct
}

// runWorkload generates the workload's inputs, measures them in a child
// process, and keeps the child's report (and Perfetto trace) under the
// results directory.
func runWorkload(ctx context.Context, cfg config, name string, traced bool, stderr io.Writer) (*report, error) {
	w, err := findWorkload(name, cfg.smoke)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, name+"-")
	if err != nil {
		return nil, err
	}
	if _, err := generate(w, cfg.seed, cfg.smoke, dir); err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	pass := "e2e"
	if traced {
		pass = "layers"
	}
	base := filepath.Join(cfg.results, fmt.Sprintf("%s-seed%d-%s-%s", name, cfg.seed, pass, stamp()))
	out := filepath.Join(dir, "report.json")
	perfetto := ""
	if traced {
		perfetto = base + ".perfetto.json"
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cctx, cancel := context.WithTimeout(ctx, time.Duration(cfg.seconds)*time.Second+childGrace)
	defer cancel()
	cmd := exec.CommandContext(cctx, exe,
		"-dir", dir, "-seconds", strconv.Itoa(cfg.seconds), "-trace="+strconv.FormatBool(traced),
		"-powderd", cfg.powderd, "-out", out, "-perfetto", perfetto)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdout, cmd.Stderr = stderr, stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	// On cancellation the child gets SIGTERM, which stops its daemons;
	// WaitDelay then bounds how long it may take.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 20 * time.Second
	started := time.Now().UTC()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child (inputs kept in %s): %w", dir, err)
	}
	r, err := readReport(out)
	if err != nil {
		return nil, err
	}
	r.Started = started
	if err := r.validate(); err != nil {
		return nil, err
	}
	if err := writeJSON(base+".json", r); err != nil {
		return nil, err
	}
	return r, os.RemoveAll(dir)
}

// childMain measures one workload on inputs the parent generated and
// writes the report.
func childMain(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench-child", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "generated inputs")
	seconds := fs.Int("seconds", 30, "measurement budget")
	traced := fs.Bool("trace", false, "traced pass")
	powderd := fs.String("powderd", "", "powderd binary")
	out := fs.String("out", "", "report file")
	perfetto := fs.String("perfetto", "", "Perfetto trace file of the traced rep")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := measure(*dir, *seconds, *traced, *powderd, *out, *perfetto); err != nil {
		fmt.Fprintln(stderr, "bench child:", err)
		return 1
	}
	return 0
}

// measure runs the workload of the inputs in dir and writes its report.
func measure(dir string, seconds int, traced bool, powderd, out, perfetto string) error {
	in, files, err := loadInputs(dir)
	if err != nil {
		return err
	}
	w, err := findWorkload(in.Workload, in.Smoke)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runtime.GOMAXPROCS(gomaxprocs)
	r := newReport(w, in.Seed, in.Smoke, traced, seconds)
	r.GOMAXPROCS, r.NumCPU = runtime.GOMAXPROCS(0), runtime.NumCPU()
	budget := time.Duration(seconds) * time.Second
	lib := cellib.Lib2()
	if w.Daemon {
		d := &daemonBench{in: in, files: files, lib: lib, bin: powderd, dir: dir}
		err = d.run(ctx, r, budget)
	} else {
		e := &engineBench{w: w, in: in, files: files, lib: lib}
		err = e.run(ctx, r, budget)
	}
	if err != nil {
		return err
	}
	if perfetto != "" && len(r.spans) > 0 {
		if err := writePerfetto(perfetto, r.spans); err != nil {
			return err
		}
	}
	return writeJSON(out, r)
}

func writePerfetto(path string, spans []trace.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WritePerfetto(f, spans); err != nil {
		f.Close()
		return err
	}
	return errors.Join(f.Sync(), f.Close())
}
