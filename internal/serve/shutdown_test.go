package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro"
)

// TestDrainCheckpointsAndWarmRestartResumes is the service-level kill test:
// a drain lands mid-negotiation — readiness flips to 503, new work is
// refused, the in-flight request returns a well-formed partial and leaves
// its checkpoint in the session's journal, and every session's journal is
// closed. A second daemon over the same directory warm-starts the session
// and resumes the negotiation from that checkpoint, finishing with wires
// byte-identical (at the JSON service boundary) to an uninterrupted run.
func TestDrainCheckpointsAndWarmRestartResumes(t *testing.T) {
	dir := t.TempDir()
	l := funnel(16)
	// The daemon runs under Serve on a loopback listener, so the drain is
	// the production sequence: readiness flip, ReadyzGrace, Shutdown under
	// DrainTimeout, work cancellation, closeJournals. The grace is long enough
	// to observe the flip; the drain deadline far shorter than the
	// negotiation, so its work context is cancelled cooperatively.
	s := New(Config{SnapshotDir: dir, Workers: 1, CheckpointEvery: 1,
		ReadyzGrace: time.Second, DrainTimeout: 50 * time.Millisecond,
		Logf: func(string, ...any) {}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sigterm, stop := context.WithCancel(context.Background())
	defer stop()
	served := make(chan error, 1)
	go func() { served <- s.Serve(sigterm, ln) }()
	ts := &httptest.Server{URL: "http://" + ln.Addr().String()} // the helpers read only URL
	sr := createSession(t, ts, l, "pitch=2&weight=40")
	snap := filepath.Join(dir, sr.Hash+".jrnl")

	var ready readyzResponse
	if code := getJSON(t, ts.URL+"/readyz", &ready); code != http.StatusOK || ready.Status != "ready" {
		t.Fatalf("readyz before drain = %d %+v, want ready", code, ready)
	}

	// A long negotiation: every rip stalls 100ms, checkpointing each rip.
	restore := slowReroutes(100 * time.Millisecond)
	defer restore()
	type result struct {
		code int
		resp negotiateResponse
	}
	negDone := make(chan result, 1)
	go func() {
		var nr negotiateResponse
		code, _ := postJSON(t, ts.URL+"/v1/sessions/"+sr.Hash+"/negotiate", negotiateRequest{}, &nr)
		negDone <- result{code, nr}
	}()
	waitFor(t, "mid-negotiation checkpoint", func() bool {
		return journalNegotiating(t, snap)
	})

	stop() // SIGTERM
	waitFor(t, "readiness to flip", func() bool {
		var r readyzResponse
		return getJSON(t, ts.URL+"/readyz", &r) == http.StatusServiceUnavailable && r.Status == "draining"
	})
	if code, _ := postJSON(t, ts.URL+"/v1/sessions/"+sr.Hash+"/route", routeRequest{Net: "n01"}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("new work during drain = %d, want 503", code)
	}
	got := <-negDone
	if got.code != http.StatusOK || !got.resp.Partial {
		t.Fatalf("drained negotiate = %d %+v, want a 200 partial", got.code, got.resp)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v after the drain, want nil", err)
	}
	restore()

	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("drain persisted no session snapshot: %v", err)
	}
	if !journalNegotiating(t, snap) {
		t.Fatal("interrupted negotiation left no checkpoint in the journal")
	}

	// Restart over the same directory: warm session, resumed negotiation.
	_, ts2 := newTestServer(t, Config{SnapshotDir: dir, Workers: 1, CheckpointEvery: 1})
	back := createSession(t, ts2, l, "pitch=2&weight=40")
	if !back.Warm || !back.Created {
		t.Fatalf("restart re-admission = %+v, want a warm start from the drained snapshot", back)
	}
	var nr negotiateResponse
	code, _ := postJSON(t, ts2.URL+"/v1/sessions/"+back.Hash+"/negotiate", negotiateRequest{Wires: true}, &nr)
	if code != http.StatusOK || !nr.Resumed || !nr.Converged || nr.Partial {
		t.Fatalf("resumed negotiate = %d %+v, want a resumed converged run", code, nr)
	}
	if journalNegotiating(t, snap) {
		t.Fatal("completed negotiation did not retire its checkpoint")
	}

	// Byte-identity at the service boundary: the resumed run's wires JSON
	// equals an uninterrupted single-worker reference run's.
	ref, err := genroute.NewEngine(funnel(16),
		genroute.WithWorkers(1), genroute.WithPitch(2), genroute.WithPenaltyWeight(40))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.RouteNegotiated(context.Background()); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(wiresJSON(ref.Result().Nets))
	if err != nil {
		t.Fatal(err)
	}
	gotWires, err := json.Marshal(nr.Wires)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotWires, want) {
		t.Fatalf("resumed wires differ from uninterrupted run:\n got %s\nwant %s", gotWires, want)
	}
}
