// Package store is powderd's durability layer: an append-only,
// CRC-framed write-ahead journal that persists job metadata, submitted
// BLIF, and completed results across daemon restarts. It holds no
// result cache: the serving layer's job table answers duplicate
// submissions, and a restart re-warms it from the replayed journal.
//
// The package is deliberately dumb about what it stores: options,
// results, and ledgers travel as raw JSON so the serving layer above
// owns the schema and no import cycle forms.
//
// Durability model
//
//   - Every state transition (submit, finish, cancel) is one framed
//     record appended to journal.wal and fsynced before the caller
//     proceeds. The journal is the whole store: nothing rewrites it, and
//     the store keeps no live copy of a job — the serving layer's job
//     table is the only one.
//   - On Open the journal is replayed into the job table it describes
//     (Jobs). Replay stops at the first bad frame: a torn write from a
//     crash, or damage anywhere else. That frame and everything after
//     it are appended to journal.wal.corrupt, truncated from the
//     journal and counted, so corruption never fails startup. The jobs
//     recorded after a bad frame are lost to the daemon but kept on disk
//     for post-mortem; if that copy cannot be written, the journal is
//     left whole and the store opens degraded.
//   - A failed append (disk full, I/O error) flips the store into
//     degraded mode: persistence stops, the daemon keeps serving from
//     memory, and the condition is logged once and exported as a
//     metric.
package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"powder/internal/obs"
)

// Job states persisted in records. They mirror the serving layer's
// states but are plain strings so the store stays schema-agnostic.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateCompleted = "completed"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// terminal reports whether a persisted state is final.
func terminal(state string) bool {
	return state == StateCompleted || state == StateFailed || state == StateCancelled
}

// JobRecord is the persisted form of one job. Options, Result, and
// Ledger are opaque JSON owned by the serving layer.
type JobRecord struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Circuit string `json:"circuit,omitempty"`
	// CacheKey is the content-addressed key of the submission (structural
	// hash + options), used to re-index recovered results for duplicate
	// submissions.
	CacheKey string          `json:"cache_key,omitempty"`
	Options  json.RawMessage `json:"options,omitempty"`
	Input    []byte          `json:"input,omitempty"`
	// Activity is the raw workload activity dump (VCD or SAIF) uploaded
	// with the submission, kept so an interrupted job re-runs under the
	// same workload after a restart.
	Activity    []byte          `json:"activity,omitempty"`
	SubmittedAt time.Time       `json:"submitted_at"`
	FinishedAt  time.Time       `json:"finished_at"`
	Result      json.RawMessage `json:"result,omitempty"`
	ResultBLIF  []byte          `json:"result_blif,omitempty"`
	Ledger      json.RawMessage `json:"ledger,omitempty"`
	Error       string          `json:"error,omitempty"`
}

// Terminal reports whether the record's state is final.
func (r *JobRecord) Terminal() bool { return terminal(r.State) }

// walRecord is one journal entry.
type walRecord struct {
	Type string     `json:"t"`
	Job  *JobRecord `json:"job,omitempty"` // submit
	ID   string     `json:"id,omitempty"`  // finish / cancel
	// finish fields
	State      string          `json:"state,omitempty"`
	FinishedAt time.Time       `json:"finished_at,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
	ResultBLIF []byte          `json:"result_blif,omitempty"`
	Ledger     json.RawMessage `json:"ledger,omitempty"`
	Error      string          `json:"error,omitempty"`
}

// Hooks are the store's fault-injection points; all fields may be nil
// (the production configuration). See internal/faultinject for ready-
// made constructors.
type Hooks struct {
	// AppendErr, when non-nil, is consulted before each journal append;
	// a non-nil error is treated exactly like the underlying write
	// failing with it (e.g. a simulated ENOSPC), driving the store into
	// degraded mode.
	AppendErr func(recType string) error
	// ShortWrite, when non-nil, is consulted before each journal append;
	// a value n >= 0 makes the store write only the first n bytes of the
	// frame while still reporting success — a torn write, as left behind
	// by a crash mid-append. Return a negative value for a full write.
	ShortWrite func(recType string) int
}

// Options configures Open.
type Options struct {
	// Dir is the store directory; created if missing.
	Dir string
	// Registry receives the store metrics (nil: metrics are dropped).
	Registry *obs.Registry
	// Log receives recovery and degradation warnings (nil: slog.Default).
	Log *slog.Logger
	// Hooks inject faults for tests; nil for production.
	Hooks *Hooks
}

// Store is a durable job journal under one directory. All methods are
// safe for concurrent use.
type Store struct {
	log   *slog.Logger
	hooks *Hooks

	mu  sync.Mutex
	wal *os.File
	// recovered is the job table Open replayed, held until Jobs hands
	// it over.
	recovered []JobRecord
	degraded  bool
	closed    bool

	appends     *obs.Counter
	degradedCnt *obs.Counter
}

// Open loads (or creates) the store in opts.Dir: the journal is
// replayed with tail-corruption truncation and left open for appending.
// Open fails only on genuine I/O errors (unreadable directory), never
// on corrupted contents.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: Dir is required")
	}
	if opts.Log == nil {
		opts.Log = slog.Default()
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %v", err)
	}
	path := filepath.Join(opts.Dir, "journal.wal")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening journal: %v", err)
	}
	t := replayTable{jobs: make(map[string]*JobRecord)}
	var replayed int64
	good, corrupt := readFrames(f, func(payload []byte) bool {
		var rec walRecord
		if jerr := json.Unmarshal(payload, &rec); jerr != nil {
			return false // framed but unparsable: treat as tail damage
		}
		t.apply(&rec)
		replayed++
		return true
	})
	reg.Counter("store.wal.replayed").Add(replayed)
	truncations := reg.Counter("store.wal.truncations")
	degradedCnt := reg.Counter("store.degraded")
	var unsaved bool
	if corrupt {
		var total int64
		if st, _ := f.Stat(); st != nil {
			total = st.Size()
		}
		if qerr := saveTail(f, good, path+".corrupt"); qerr != nil {
			// Cutting a tail that has no copy would destroy it: keep the
			// journal whole and stop appending, as after a failed write.
			unsaved = true
			degradedCnt.Inc()
			opts.Log.Warn("store: cannot save corrupt journal tail; degrading to in-memory mode (durability lost)",
				"path", path, "err", qerr)
		} else {
			truncations.Inc()
			opts.Log.Warn("store: truncating journal at its first corrupt frame",
				"path", path, "kept_bytes", good, "dropped_bytes", total-good,
				"saved_to", path+".corrupt")
			if terr := f.Truncate(good); terr != nil {
				f.Close()
				return nil, fmt.Errorf("store: truncating corrupt journal tail: %v", terr)
			}
		}
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: seeking journal end: %v", err)
	}
	return &Store{
		log:         opts.Log,
		hooks:       opts.Hooks,
		wal:         f,
		recovered:   t.records(),
		degraded:    unsaved,
		appends:     reg.Counter("store.wal.records"),
		degradedCnt: degradedCnt,
	}, nil
}

// saveTail appends the journal's bytes from off on to the file at path
// and makes them durable, so truncating the journal destroys nothing:
// the records after a bad frame stay recoverable by hand.
func saveTail(f *os.File, off int64, path string) error {
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return err
	}
	q, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, err = io.Copy(q, f)
	if err == nil {
		err = q.Sync()
	}
	if cerr := q.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		syncDir(filepath.Dir(path))
	}
	return err
}

// syncDir fsyncs a directory so a just-created file's directory entry is
// durable. Errors are ignored: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// replayTable folds journal records into the job table they describe.
type replayTable struct {
	jobs  map[string]*JobRecord
	order []*JobRecord // submission order, purged jobs included
}

// apply folds one journal record into the table. It tolerates records
// for unknown jobs (dropped by an earlier cancel purge) and ignores
// unknown record types, among them the "start" record older daemons
// wrote: recovery re-enqueues queued and running jobs alike.
func (t *replayTable) apply(rec *walRecord) {
	switch rec.Type {
	case "submit":
		if rec.Job == nil || rec.Job.ID == "" {
			return
		}
		if j, ok := t.jobs[rec.Job.ID]; ok {
			*j = *rec.Job
			return
		}
		t.jobs[rec.Job.ID] = rec.Job
		t.order = append(t.order, rec.Job)
	case "finish":
		j, ok := t.jobs[rec.ID]
		if !ok || !terminal(rec.State) {
			return
		}
		j.State = rec.State
		j.FinishedAt = rec.FinishedAt
		j.Result = rec.Result
		j.ResultBLIF = rec.ResultBLIF
		j.Ledger = rec.Ledger
		j.Error = rec.Error
	case "cancel":
		// A cancel of a queued job purges it outright: replay must not
		// resurrect work the user already abandoned.
		delete(t.jobs, rec.ID)
	}
}

// records returns the surviving jobs in submission order.
func (t *replayTable) records() []JobRecord {
	out := make([]JobRecord, 0, len(t.jobs))
	for _, j := range t.order {
		if t.jobs[j.ID] == j {
			out = append(out, *j)
		}
	}
	return out
}

// append frames, writes, and fsyncs one record; nothing else touches
// the journal after Open. Persistence is skipped in degraded mode. A
// write failure degrades the store instead of failing the caller: the
// daemon must keep serving even with a dead disk.
func (s *Store) append(rec *walRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.degraded || s.closed {
		return
	}
	if err := s.appendLocked(rec); err != nil {
		s.degraded = true
		s.degradedCnt.Inc()
		s.log.Warn("store: journal append failed; degrading to in-memory mode (durability lost)",
			"err", err)
		return
	}
	s.appends.Inc()
}

// appendLocked frames, writes, and fsyncs one record. Callers hold mu.
func (s *Store) appendLocked(rec *walRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if h := s.hooks; h != nil && h.AppendErr != nil {
		if herr := h.AppendErr(rec.Type); herr != nil {
			return herr
		}
	}
	var buf bytes.Buffer
	if err := appendFrame(&buf, payload); err != nil {
		return err
	}
	frame := buf.Bytes()
	if h := s.hooks; h != nil && h.ShortWrite != nil {
		if n := h.ShortWrite(rec.Type); n >= 0 && n < len(frame) {
			// A torn write: the bytes land but the caller believes the
			// append succeeded, exactly like a crash between write and
			// the next append.
			_, _ = s.wal.Write(frame[:n])
			return nil
		}
	}
	if _, err := s.wal.Write(frame); err != nil {
		return err
	}
	return s.wal.Sync()
}

// AppendSubmit persists a newly submitted job.
func (s *Store) AppendSubmit(j JobRecord) {
	if j.State == "" {
		j.State = StateQueued
	}
	s.append(&walRecord{Type: "submit", Job: &j})
}

// AppendFinish persists a job's terminal transition with its outcome.
func (s *Store) AppendFinish(id, state string, finishedAt time.Time, result json.RawMessage, resultBLIF []byte, ledger json.RawMessage, errMsg string) {
	s.append(&walRecord{
		Type: "finish", ID: id, State: state, FinishedAt: finishedAt,
		Result: result, ResultBLIF: resultBLIF, Ledger: ledger, Error: errMsg,
	})
}

// AppendCancel persists the cancellation of a still-queued job by
// purging it: replay will not resurrect it.
func (s *Store) AppendCancel(id string) {
	s.append(&walRecord{Type: "cancel", ID: id})
}

// Jobs hands over the job table Open recovered from the journal, in
// submission order; later appends do not change it. The store keeps no
// copy: the first call returns the table, later calls nil.
func (s *Store) Jobs() []JobRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.recovered
	s.recovered = nil
	return recs
}

// Degraded reports whether persistence has been lost to a write failure
// or to a corrupt journal tail Open could not save.
func (s *Store) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// Close closes the journal; later appends are dropped.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.wal.Close()
}
