// Command powderd serves POWDER over HTTP: clients POST technology-
// mapped BLIF circuits and get back asynchronously optimized netlists,
// with streaming progress, cancellation, and metrics.
//
// Usage:
//
//	powderd [-addr :8844] [-workers N] [-queue N] [-lib cells.genlib]
//	        [-store-dir DIR]
//
// With -store-dir, every job transition is appended to a write-ahead
// journal under DIR, the whole job store: a crashed or restarted
// daemon replays it to recover its job table, serves finished results,
// and re-enqueues work that was queued or running. The job table is
// also the content-addressed result cache: a duplicate submission
// (same structural circuit, same options) is answered instantly from
// the completed job that ran it, in memory without -store-dir and
// across restarts with it; ?no-cache=1 on a submission bypasses it.
//
// API (see the README "Serving" section for curl examples):
//
//	POST   /v1/jobs?timeout=30s&delay-limit=10&max-subs=100&verify=1
//	GET    /v1/jobs/{id}
//	GET    /v1/jobs/{id}/result.blif
//	GET    /v1/jobs/{id}/events        NDJSON job events (+ span ends
//	                                   of a traced job)
//	GET    /v1/jobs/{id}/trace         span tree of a traced job
//	DELETE /v1/jobs/{id}
//	GET    /healthz
//	GET    /metrics
//	GET    /debug/status               live queue/worker/span introspection
//	GET    /debug/flight               flight-recorder dump (recent events,
//	                                   spans, requests, counter deltas)
//
// With -trace-sample N, one job in every N records a hierarchical span
// trace (request → queue → run → engine phases → SAT solves); the trace
// ID travels in the job status and the X-Powder-Trace response header,
// and -v access logs carry it so a slow request correlates straight to
// its span tree. A submission that itself carries X-Powder-Trace is
// traced unconditionally under the client's trace ID, and the client
// can stitch its own spans into the tree via POST /v1/jobs/{id}/spans
// (powder -server -trace-perfetto does exactly this).
//
// The process keeps an always-on flight recorder — a bounded ring of
// the most recent job events (with the span ends of traced jobs), HTTP
// requests, and periodic metric deltas — dumped at GET /debug/flight
// and, on SIGQUIT, to stderr ahead of the runtime's goroutine dump.
//
// On SIGTERM/SIGINT the daemon stops accepting submissions (503),
// drains queued and in-flight jobs, and exits; jobs still running when
// -drain-timeout expires are cancelled and finish with their best
// result so far.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"powder/internal/cellib"
	"powder/internal/obs"
	"powder/internal/service"
	"powder/internal/store"
)

func main() {
	var (
		addr         = flag.String("addr", ":8844", "HTTP listen address")
		workers      = flag.Int("workers", 0, "optimization workers (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "job queue depth; a full queue rejects submissions with 429")
		libPath      = flag.String("lib", "", "genlib library file (default: built-in lib2)")
		maxBody      = flag.Int64("max-body", 16<<20, "largest accepted BLIF body in bytes")
		jobTimeout   = flag.Duration("job-timeout", 5*time.Minute, "default per-job wall-clock budget when the submission sets none (0 = unlimited)")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "how long shutdown waits for queued and in-flight jobs before cancelling them")
		traceSample  = flag.Int64("trace-sample", 0, "span-trace one job in every N submissions (1 = every job, 0 = off)")
		traceLimit   = flag.Int("trace-limit", 0, "recorded spans kept per traced job (0 = default 65536)")
		storeDir     = flag.String("store-dir", "", "persist jobs and results here in an append-only journal; restarts recover the job table, its cached results included, and re-enqueue interrupted work")
		verbose      = flag.Bool("v", false, "log every HTTP request")
	)
	flag.Parse()

	lib := cellib.Lib2()
	if *libPath != "" {
		f, err := os.Open(*libPath)
		if err != nil {
			fail(err)
		}
		parsed, err := cellib.ParseGenlib(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		lib = parsed
	}

	reg := obs.NewRegistry()
	logger := slog.Default()

	// The flight recorder dumps to stderr on SIGQUIT (before the
	// goroutine dump) and samples counter movement on a coarse ticker so
	// its ring carries rate history next to the discrete events.
	obs.FlightDumpOnQuit(reg)
	go func() {
		t := time.NewTicker(10 * time.Second)
		defer t.Stop()
		for range t.C {
			obs.Flight().SampleMetrics(reg)
		}
	}()

	// The durability layer: a job journal under -store-dir. A write
	// failure inside the store degrades the daemon to in-memory operation
	// instead of killing it.
	var jobStore *store.Store
	if *storeDir != "" {
		st, err := store.Open(store.Options{Dir: *storeDir, Registry: reg, Log: logger})
		if err != nil {
			fail(err)
		}
		jobStore = st
	}

	svc := service.New(service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		Library:        lib,
		MaxBodyBytes:   *maxBody,
		DefaultTimeout: *jobTimeout,
		Registry:       reg,
		TraceSample:    *traceSample,
		TraceLimit:     *traceLimit,
		Store:          jobStore,
	})
	if jobStore != nil {
		requeued, served := svc.Restore()
		log.Printf("powderd: store %s recovered: %d finished jobs served, %d interrupted jobs re-enqueued",
			*storeDir, served, requeued)
	}

	handler := svc.Handler()
	if *verbose {
		handler = logRequests(slog.Default(), handler)
	}
	srv := &http.Server{Addr: *addr, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("powderd: listening on %s (%d workers, queue %d)", *addr, svc.Workers(), *queue)

	select {
	case err := <-errCh:
		fail(err)
	case <-ctx.Done():
	}

	// Graceful shutdown: refuse new submissions immediately, let queued
	// and in-flight jobs finish, then close the listener. Status and
	// event-stream reads keep working while jobs drain.
	log.Printf("powderd: draining (timeout %s)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Drain(drainCtx); err != nil {
		log.Printf("powderd: drain expired; in-flight jobs were cancelled (%v)", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("powderd: shutdown: %v", err)
	}
	// The store closes after the drain so every finished job's terminal
	// record is journaled (and fsynced) before the process exits.
	if jobStore != nil {
		if err := jobStore.Close(); err != nil {
			log.Printf("powderd: store close: %v", err)
		}
	}
	log.Printf("powderd: bye")
}

// statusWriter captures the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush keeps the NDJSON event stream flushable through the wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// logRequests is a structured access-log middleware; requests touching
// a traced job log its trace ID (from the X-Powder-Trace response
// header), so a slow request correlates to its span tree.
func logRequests(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		attrs := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"duration", time.Since(start).Round(time.Microsecond).String(),
		}
		if id := sw.Header().Get(service.TraceHeader); id != "" {
			attrs = append(attrs, "trace", id)
		}
		logger.Info("request", attrs...)
	})
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "powderd:", err)
	os.Exit(1)
}
