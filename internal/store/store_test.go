package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"powder/internal/faultinject"
	"powder/internal/obs"
)

func openTest(t *testing.T, dir string, reg *obs.Registry, hooks *Hooks) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir, Registry: reg, Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func submitN(s *Store, n int) {
	for i := 0; i < n; i++ {
		s.AppendSubmit(JobRecord{
			ID:          jobID(i),
			State:       StateQueued,
			Circuit:     "c",
			Input:       []byte(".model c\n.inputs a\n.outputs y\n.end\n"),
			Options:     json.RawMessage(`{"verify":false}`),
			SubmittedAt: time.Unix(1700000000+int64(i), 0).UTC(),
		})
	}
}

func jobID(i int) string { return "j" + string(rune('a'+i%26)) + "00" }

func TestRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, nil, nil)
	submitN(s, 3)
	s.AppendFinish(jobID(0), StateCompleted, time.Unix(1700000100, 0).UTC(),
		json.RawMessage(`{"reduction_pct":12.5}`), []byte(".model c\n.end\n"),
		json.RawMessage(`{"moves":1}`), "")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := openTest(t, dir, nil, nil)
	jobs := re.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("recovered %d jobs, want 3: %+v", len(jobs), jobs)
	}
	if again := re.Jobs(); again != nil {
		t.Errorf("store kept the recovered table after handing it over (%d jobs)", len(again))
	}
	if jobs[0].State != StateCompleted || string(jobs[0].ResultBLIF) != ".model c\n.end\n" {
		t.Errorf("job 0 not recovered terminal with result: %+v", jobs[0])
	}
	for _, j := range jobs[1:] {
		if j.State != StateQueued {
			t.Errorf("job %s state = %q, want queued", j.ID, j.State)
		}
		if len(j.Input) == 0 {
			t.Errorf("job %s lost its input BLIF", j.ID)
		}
	}
}

func TestCancelPurgesJournal(t *testing.T) {
	// A queued job that was cancelled must not be resurrected by replay:
	// the cancel record purges it. Regression test for the DELETE path.
	dir := t.TempDir()
	s := openTest(t, dir, nil, nil)
	submitN(s, 2)
	s.AppendCancel(jobID(0))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := openTest(t, dir, nil, nil)
	jobs := re.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("recovered %d jobs, want 1 (cancelled job purged): %+v", len(jobs), jobs)
	}
	if jobs[0].ID != jobID(1) {
		t.Errorf("survivor is %q, want %q", jobs[0].ID, jobID(1))
	}
}

func TestCorruptTailTruncatesNeverFails(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, nil, nil)
	submitN(s, 2)
	s.AppendFinish(jobID(1), StateFailed, time.Unix(1700000100, 0).UTC(), nil, nil, nil, "boom")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walBytes, err := os.ReadFile(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	// Chop mid-record and append garbage: both tail-damage shapes at once.
	torn := append(append([]byte{}, walBytes[:len(walBytes)-5]...), "GARBAGE!"...)
	if err := os.WriteFile(filepath.Join(dir, "journal.wal"), torn, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	re, err := Open(Options{Dir: dir, Registry: reg})
	if err != nil {
		t.Fatalf("corrupt tail must not fail Open: %v", err)
	}
	defer re.Close()
	if got := reg.Counter("store.wal.truncations").Value(); got == 0 {
		t.Error("truncation quarantine counter did not move")
	}
	jobs := re.Jobs()
	// The torn record was the finish; both submits must survive.
	if len(jobs) != 2 {
		t.Fatalf("recovered %d jobs, want 2: %+v", len(jobs), jobs)
	}
	if jobs[1].State != StateQueued {
		t.Errorf("job 1 state = %q, want queued (finish record was torn away)", jobs[1].State)
	}
	re.Close()
	// The truncated journal must now replay cleanly, with no further
	// truncation events.
	reg2 := obs.NewRegistry()
	re2, err := Open(Options{Dir: dir, Registry: reg2})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if got := reg2.Counter("store.wal.truncations").Value(); got != 0 {
		t.Errorf("second replay truncated again (%d); truncation should be sticky-clean", got)
	}
}

// TestBadFrameMidJournalSaved damages a frame in the middle of the
// journal: replay keeps the jobs before it, and the bad frame and every
// intact record after it move to journal.wal.corrupt instead of being
// destroyed. A later damaged tail is appended there, not overwritten.
func TestBadFrameMidJournalSaved(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, nil, nil)
	submitN(s, 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "journal.wal")
	wal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the third frame: its CRC no longer matches.
	off := 0
	for i := 0; i < 2; i++ {
		off += frameHeaderSize + int(binary.LittleEndian.Uint32(wal[off:]))
	}
	wal[off+frameHeaderSize] ^= 0xFF
	if err := os.WriteFile(path, wal, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	re := openTest(t, dir, reg, nil)
	if got := reg.Counter("store.wal.truncations").Value(); got != 1 {
		t.Errorf("store.wal.truncations = %d, want 1", got)
	}
	if jobs := re.Jobs(); len(jobs) != 2 || jobs[1].ID != jobID(1) {
		t.Fatalf("recovered %+v, want the two jobs before the bad frame", jobs)
	}
	if kept, _ := os.ReadFile(path); !bytes.Equal(kept, wal[:off]) {
		t.Errorf("journal kept %d bytes, want the %d before the bad frame", len(kept), off)
	}
	saved, err := os.ReadFile(path + ".corrupt")
	if err != nil || !bytes.Equal(saved, wal[off:]) {
		t.Fatalf("journal.wal.corrupt holds %d bytes (err %v), want the %d dropped", len(saved), err, len(wal)-off)
	}
	var ids []string
	bad := frameHeaderSize + int(binary.LittleEndian.Uint32(saved))
	readFrames(bytes.NewReader(saved[bad:]), func(payload []byte) bool {
		var rec walRecord
		if json.Unmarshal(payload, &rec) != nil || rec.Job == nil {
			return false
		}
		ids = append(ids, rec.Job.ID)
		return true
	})
	if fmt.Sprint(ids) != fmt.Sprint([]string{jobID(3), jobID(4)}) {
		t.Errorf("records after the bad frame in journal.wal.corrupt: %v", ids)
	}

	re.AppendSubmit(JobRecord{ID: jobID(5)})
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("torn")
	f.Close()
	re2 := openTest(t, dir, nil, nil)
	if jobs := re2.Jobs(); len(jobs) != 3 || jobs[2].ID != jobID(5) {
		t.Errorf("after the second truncation recovered %+v", jobs)
	}
	if again, _ := os.ReadFile(path + ".corrupt"); !bytes.Equal(again, append(saved, "torn"...)) {
		t.Errorf("second truncation did not append to journal.wal.corrupt: %q", again[len(again)-8:])
	}
}

// TestUnsavableTailDegrades: when the dropped bytes cannot be saved,
// Open cuts nothing and opens degraded instead of failing.
func TestUnsavableTailDegrades(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, nil, nil)
	submitN(s, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "journal.wal")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("torn")
	f.Close()
	want, _ := os.ReadFile(path)
	if err := os.Mkdir(path+".corrupt", 0o755); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	re := openTest(t, dir, reg, nil)
	if !re.Degraded() || reg.Counter("store.degraded").Value() != 1 {
		t.Error("store with an unsavable corrupt tail did not open degraded")
	}
	if got := reg.Counter("store.wal.truncations").Value(); got != 0 {
		t.Errorf("store.wal.truncations = %d, want 0", got)
	}
	if jobs := re.Jobs(); len(jobs) != 2 {
		t.Errorf("recovered %d jobs, want 2", len(jobs))
	}
	re.AppendSubmit(JobRecord{ID: jobID(2)})
	if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
		t.Errorf("journal changed from %d to %d bytes", len(want), len(got))
	}
}

func TestShortWriteRecovered(t *testing.T) {
	dir := t.TempDir()
	hooks := &Hooks{ShortWrite: faultinject.ShortWriteOnNth(3, 7)}
	s := openTest(t, dir, nil, hooks)
	submitN(s, 3) // third append is torn after 7 bytes
	s.mu.Lock()
	s.wal.Close() // crash: torn frame on disk
	s.closed = true
	s.mu.Unlock()

	re := openTest(t, dir, nil, nil)
	jobs := re.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("recovered %d jobs, want 2 (torn third submit dropped): %+v", len(jobs), jobs)
	}
}

func TestENOSPCDegradesToMemory(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	hooks := &Hooks{AppendErr: faultinject.FailWritesAfter(2)}
	s := openTest(t, dir, reg, hooks)
	submitN(s, 5)
	if !s.Degraded() {
		t.Fatal("store did not degrade after injected ENOSPC")
	}
	if got := reg.Counter("store.degraded").Value(); got != 1 {
		t.Errorf("store.degraded = %d, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Only the two durable appends survive.
	re := openTest(t, dir, nil, nil)
	if got := len(re.Jobs()); got != 2 {
		t.Errorf("durable jobs = %d, want 2", got)
	}
}

// TestJournalNeverRewritten pins the journal as the whole store: it only
// grows, and no side file takes over its contents.
func TestJournalNeverRewritten(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, nil, nil)
	path := filepath.Join(dir, "journal.wal")
	var last int64
	grew := func() {
		t.Helper()
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() <= last {
			t.Fatalf("journal went from %d to %d bytes", last, st.Size())
		}
		last = st.Size()
	}
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("j%06d", i)
		s.AppendSubmit(JobRecord{ID: id, Circuit: "c", Input: []byte(".model c\n.end\n")})
		grew()
		s.AppendCancel(id)
		grew()
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != last {
		t.Fatalf("Close changed the journal: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); !os.IsNotExist(err) {
		t.Errorf("snapshot.json exists (err %v)", err)
	}
	reg := obs.NewRegistry()
	re := openTest(t, dir, reg, nil)
	if got := reg.Counter("store.wal.replayed").Value(); got != 400 {
		t.Errorf("replayed %d records, want 400", got)
	}
	if jobs := re.Jobs(); len(jobs) != 0 {
		t.Errorf("cancelled jobs recovered: %+v", jobs)
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Error("Open with no Dir should fail")
	}
}

func TestFailFromFirstWrite(t *testing.T) {
	// A disk dead at startup: the store opens and degrades on the first
	// append.
	dir := t.TempDir()
	hooks := &Hooks{AppendErr: faultinject.FailWritesAfter(0)}
	s := openTest(t, dir, nil, hooks)
	submitN(s, 1)
	if !s.Degraded() {
		t.Fatal("expected degraded store")
	}
	if !errors.Is(faultinject.FailWritesAfter(0)(""), faultinject.ErrNoSpace) {
		t.Error("FailWritesAfter(0) should fail immediately")
	}
}
