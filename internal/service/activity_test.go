package service

import (
	"bytes"
	"encoding/json"
	"mime/multipart"
	"net/http"
	"strings"
	"testing"
	"time"

	"powder/internal/activity"
	"powder/internal/blif"
	"powder/internal/cellib"
	"powder/internal/obs"
	"powder/internal/store"
)

// dumpsFor renders a VCD and a SAIF of the same simulated workload for
// a committed example circuit; the two dumps describe identical
// statistics and therefore share one activity digest.
func dumpsFor(t *testing.T, name string, seed int64) (vcd, saif []byte) {
	t.Helper()
	model, err := blif.ReadModel(bytes.NewReader(circuitBLIF(t, name)), cellib.Lib2())
	if err != nil {
		t.Fatal(err)
	}
	opts := activity.DumpOptions{Words: 4, Seed: seed}
	var vb, sb bytes.Buffer
	if _, err := activity.DumpVCD(&vb, model.Netlist, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := activity.DumpSAIF(&sb, model.Netlist, opts); err != nil {
		t.Fatal(err)
	}
	return vb.Bytes(), sb.Bytes()
}

// submitMultipart POSTs a multipart submission with the given named
// parts and decodes the response like submit does.
func submitMultipart(t *testing.T, base, query string, parts map[string][]byte) (Status, *http.Response) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	// Deterministic order keeps failures reproducible.
	for _, name := range []string{"circuit", "activity", "bogus"} {
		data, ok := parts[name]
		if !ok {
			continue
		}
		fw, err := mw.CreateFormFile(name, name+".dat")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs"+query, mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	}
	return st, resp
}

// TestActivityUploadRoundTrip submits a circuit together with a VCD
// workload dump and checks the job reports the activity model it ran
// under: the result carries the digest-bearing label and full input
// coverage, and the ledger is stamped with the same label.
func TestActivityUploadRoundTrip(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 2, QueueDepth: 8}, nil)
	vcd, _ := dumpsFor(t, "maj3", 7)

	st, resp := submitMultipart(t, ts.URL, "", map[string][]byte{
		"circuit":  circuitBLIF(t, "maj3"),
		"activity": vcd,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	fin := waitTerminal(t, ts.URL, st.ID)
	if fin.State != StateCompleted {
		t.Fatalf("job state %s (error %q)", fin.State, fin.Error)
	}
	res := fin.Result
	if res == nil {
		t.Fatal("finished job has no result")
	}
	if !strings.Contains(res.Activity, "sha256:") {
		t.Fatalf("result activity label %q carries no digest", res.Activity)
	}
	if res.ActivityInputs != 3 || res.ActivityMatched != 3 {
		t.Fatalf("activity coverage %d/%d, want 3/3 for maj3", res.ActivityMatched, res.ActivityInputs)
	}

	lresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/ledger")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	if lresp.StatusCode != http.StatusOK {
		t.Fatalf("ledger: HTTP %d", lresp.StatusCode)
	}
	var led obs.LedgerSummary
	if err := json.NewDecoder(lresp.Body).Decode(&led); err != nil {
		t.Fatal(err)
	}
	if led.Activity != res.Activity {
		t.Fatalf("ledger activity %q != result activity %q", led.Activity, res.Activity)
	}
}

// TestActivityCacheKeyedOnDigest checks the result cache keys on the
// activity profile's content digest: a SAIF rendering of the same
// workload hits the entry filled by the VCD submission, while a dump
// with different statistics — or no dump at all — misses.
func TestActivityCacheKeyedOnDigest(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 2, QueueDepth: 8}, nil)
	body := circuitBLIF(t, "maj3")
	vcdA, saifA := dumpsFor(t, "maj3", 7)
	vcdB, _ := dumpsFor(t, "maj3", 8) // different workload, different digest

	st1, resp := submitMultipart(t, ts.URL, "", map[string][]byte{"circuit": body, "activity": vcdA})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", resp.StatusCode)
	}
	fin1 := waitTerminal(t, ts.URL, st1.ID)
	if fin1.State != StateCompleted || fin1.Cached {
		t.Fatalf("first job: state %s cached %t", fin1.State, fin1.Cached)
	}

	// Same workload as SAIF: the digest is format-independent, so this
	// is a hit even though the uploaded bytes differ completely.
	st2, _ := submitMultipart(t, ts.URL, "", map[string][]byte{"circuit": body, "activity": saifA})
	if st2.State != StateCompleted || !st2.Cached {
		t.Fatalf("SAIF twin: state %s cached %t, want a cache hit", st2.State, st2.Cached)
	}

	// A different workload misses.
	st3, _ := submitMultipart(t, ts.URL, "", map[string][]byte{"circuit": body, "activity": vcdB})
	if st3.Cached {
		t.Fatal("differing workload dump hit the cache")
	}
	fin3 := waitTerminal(t, ts.URL, st3.ID)
	if fin3.State != StateCompleted {
		t.Fatalf("third job: state %s (error %q)", fin3.State, fin3.Error)
	}

	// No dump at all misses too: uniform and workload runs must never
	// alias.
	st4, _ := submit(t, ts.URL, "", body)
	if st4.Cached {
		t.Fatal("uniform submission hit a workload-keyed entry")
	}
}

// TestActivitySubmitRejects covers the 400 paths of the multipart
// submission: probs+activity together, an unknown part name, and a dump
// that parses as neither VCD nor SAIF.
func TestActivitySubmitRejects(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1, QueueDepth: 4}, nil)
	body := circuitBLIF(t, "maj3")
	vcd, _ := dumpsFor(t, "maj3", 7)

	if _, resp := submitMultipart(t, ts.URL, "?probs=a%3D0.9", map[string][]byte{
		"circuit": body, "activity": vcd,
	}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("probs+activity: HTTP %d, want 400", resp.StatusCode)
	}
	if _, resp := submitMultipart(t, ts.URL, "", map[string][]byte{
		"circuit": body, "bogus": []byte("x"),
	}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown part: HTTP %d, want 400", resp.StatusCode)
	}
	if _, resp := submitMultipart(t, ts.URL, "", map[string][]byte{
		"circuit": body, "activity": []byte("not a dump"),
	}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed dump: HTTP %d, want 400", resp.StatusCode)
	}
	// A dump from a different design (no signal matches any input) must
	// be rejected, not silently run under the uniform assumption.
	wrong := []byte("$var wire 1 ! zz9 $end\n$enddefinitions $end\n#0\n0!\n#1\n1!\n")
	if _, resp := submitMultipart(t, ts.URL, "", map[string][]byte{
		"circuit": body, "activity": wrong,
	}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("zero-match dump: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestActivityRestoreRequeue replays a store holding an interrupted
// activity job and checks the re-run still sees the persisted workload:
// the journal carries the dump bytes outside the options JSON, and the
// recovered result reports the same coverage a fresh run would.
func TestActivityRestoreRequeue(t *testing.T) {
	dir := t.TempDir()
	vcd, _ := dumpsFor(t, "maj3", 7)
	seed := openTestStore(t, dir, obs.NewRegistry())
	ob, _ := json.Marshal(JobOptions{DelayLimitPct: -1})
	seed.AppendSubmit(store.JobRecord{
		ID: "j000042", State: store.StateQueued, Circuit: "maj3",
		Options: ob, Input: circuitBLIF(t, "maj3"), Activity: vcd,
		SubmittedAt: time.Now(),
	})
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	st := openTestStore(t, dir, reg)
	svc := New(Config{Workers: 2, QueueDepth: 8, Registry: reg, Store: st})
	defer func() { svc.Close(); st.Close() }()
	if requeued, served := svc.Restore(); requeued != 1 || served != 0 {
		t.Fatalf("Restore = (%d requeued, %d served), want (1, 0)", requeued, served)
	}
	j, ok := svc.Job("j000042")
	if !ok {
		t.Fatal("requeued job not registered under its original ID")
	}
	deadline := time.Now().Add(60 * time.Second)
	for !j.Status().State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("requeued job never finished (state %s)", j.Status().State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	fin := j.Status()
	if fin.State != StateCompleted {
		t.Fatalf("requeued job state %s (error %q)", fin.State, fin.Error)
	}
	if fin.Result == nil || fin.Result.ActivityMatched != 3 {
		t.Fatalf("requeued run lost its workload: result %+v", fin.Result)
	}
}
