package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/journal"
)

// watchdog bounds how long a request beside a parked writer may take to
// answer: far past any answer's own cost, far short of forever.
const watchdog = 5 * time.Second

// readFunc adapts a function to io.Reader.
type readFunc func([]byte) (int, error)

func (f readFunc) Read(p []byte) (int, error) { return f(p) }

// parkRouteNet parks the first firing of the RouteNet seam (a
// negotiation's first pass routes through the worker pool; a /route and a
// create do not) until release is closed, and closes parked when it parks.
func parkRouteNet() (parked, release chan struct{}, restore func()) {
	parked, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	restore = faultinject.Enable(func(site faultinject.Site) faultinject.Fault {
		if site.Point == faultinject.RouteNet {
			once.Do(func() {
				close(parked)
				<-release
			})
		}
		return faultinject.None
	})
	return parked, release, restore
}

// do sends one request under ctx and returns its status, headers and body.
func do(ctx context.Context, method, url, body string) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, strings.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}

// layoutBody is a layout's JSON, as a create posts it.
func layoutBody(t *testing.T, name string, nNets int) string {
	t.Helper()
	l := funnel(nNets)
	l.Name = name
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(l); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestEvictedWriterDoesNotForkJournal: an /eco that resolved session A's
// engine before A was evicted and warm-started again must not write A's
// journal beside the successor's. Either both acknowledged edits survive a
// restart, or the held request is refused with 503 and the journal scans
// clean with the successor's edit; with one writer per journal it is the
// latter.
func TestEvictedWriterDoesNotForkJournal(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{SnapshotDir: dir, MaxSessions: 1, MaxConcurrent: 4, Workers: 1})
	a, b := funnel(8), funnel(6)
	b.Name = "funnel-b"
	sa := createSession(t, ts, a, "pitch=2")
	negotiateOK(t, ts, sa.Hash)

	// The held /eco sends its headers and holds its body. It asks the
	// server to confirm first (100-continue), so the client reads the body
	// only once the handler has resolved A's engine and reads it too.
	pr, pw := io.Pipe()
	asked := make(chan struct{})
	var once sync.Once
	req, err := http.NewRequest("POST", ts.URL+"/v1/sessions/"+sa.Hash+"/eco", readFunc(func(p []byte) (int, error) {
		once.Do(func() { close(asked) })
		return pr.Read(p)
	}))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Expect", "100-continue")
	tr := &http.Transport{ExpectContinueTimeout: time.Minute}
	defer tr.CloseIdleConnections()
	type answer struct {
		code int
		hdr  http.Header
		err  error
	}
	held := make(chan answer, 1)
	go func() {
		resp, err := (&http.Client{Transport: tr}).Do(req)
		if err != nil {
			held <- answer{err: err}
			return
		}
		resp.Body.Close()
		held <- answer{code: resp.StatusCode, hdr: resp.Header}
	}()
	select {
	case <-asked:
	case <-time.After(watchdog):
		t.Fatal("the held /eco never reached its handler's body read")
	}

	createSession(t, ts, b, "pitch=2") // evicts A
	if back := createSession(t, ts, a, "pitch=2"); !back.Warm {
		t.Fatalf("re-created A = %+v, want a warm start from its journal", back)
	}
	heldOp := addNetOp(t, "held", 20)
	if err := json.NewEncoder(pw).Encode(ecoRequest{Ops: []ecoOp{heldOp}}); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	got := <-held
	if got.err != nil {
		t.Fatal(got.err)
	}
	ecoPost(t, ts, sa.Hash, []ecoOp{addNetOp(t, "succ", 28)})
	wires := getBody(t, ts.URL+"/v1/sessions/"+sa.Hash+"/wires")

	_, ts2 := newTestServer(t, Config{SnapshotDir: dir, Workers: 1})
	if back := createSession(t, ts2, a, "pitch=2"); !back.Warm {
		t.Fatalf("after a restart A = %+v, want a warm start from its journal", back)
	}
	recovered := getBody(t, ts2.URL+"/v1/sessions/"+sa.Hash+"/wires")
	switch got.code {
	case http.StatusOK:
		if !bytes.Contains(recovered, []byte(`"net":"held"`)) || !bytes.Contains(recovered, []byte(`"net":"succ"`)) {
			t.Fatalf("both edits were acknowledged, but the restarted session lacks one:\n%s", recovered)
		}
	case http.StatusServiceUnavailable:
		if got.hdr.Get("Retry-After") == "" {
			t.Error("the refused /eco carries no Retry-After")
		}
		if _, err := journal.ScanFile(filepath.Join(dir, sa.Hash+".jrnl")); err != nil {
			t.Fatalf("A's journal after the refused /eco: %v", err)
		}
		if !bytes.Equal(recovered, wires) {
			t.Fatalf("restarted wires differ from the successor's:\n pre: %s\npost: %s", wires, recovered)
		}
	default:
		t.Fatalf("held /eco on the evicted engine = %d, want 503 (or 200 with both edits durable)", got.code)
	}
}

// TestEvictionDoesNotStallDaemon: evicting a session whose /negotiate is
// parked mid-run leaves the daemon answering — the create that evicts it,
// /readyz, the session list and a /route on the new session — and the
// negotiation then completes, its routes durable: a re-create of the
// evicted layout warm-starts with them.
func TestEvictionDoesNotStallDaemon(t *testing.T) {
	_, ts := newTestServer(t, Config{SnapshotDir: t.TempDir(), MaxSessions: 1, MaxConcurrent: 4, Workers: 1})
	sa := createSession(t, ts, funnel(8), "pitch=2&weight=40")
	parked, release, restore := parkRouteNet()
	defer restore()
	type result struct {
		code int
		body []byte
		err  error
	}
	negotiated := make(chan result, 1)
	go func() {
		code, _, body, err := do(context.Background(), "POST", ts.URL+"/v1/sessions/"+sa.Hash+"/negotiate", `{"wires": true}`)
		negotiated <- result{code, body, err}
	}()
	<-parked

	ctx, cancel := context.WithTimeout(context.Background(), watchdog)
	code, _, body, err := do(ctx, "POST", ts.URL+"/v1/sessions?pitch=2", layoutBody(t, "funnel-b", 6))
	var sb sessionResponse
	if err == nil {
		err = json.Unmarshal(body, &sb)
	}
	if err != nil || code != http.StatusCreated {
		t.Errorf("create of B beside a parked negotiation on A = %d %s (%v), want 201", code, body, err)
	}
	for _, r := range []struct{ method, path, body string }{
		{"GET", "/readyz", ""},
		{"GET", "/v1/sessions", ""},
		{"POST", "/v1/sessions/" + sb.Hash + "/route", `{"net": "n01"}`},
	} {
		if code, _, body, err := do(ctx, r.method, ts.URL+r.path, r.body); err != nil || code != http.StatusOK {
			t.Errorf("%s %s beside a parked negotiation on an evicted session = %d %s (%v), want 200", r.method, r.path, code, body, err)
		}
	}
	cancel()
	close(release)

	got := <-negotiated
	var nr negotiateResponse
	if got.err == nil {
		got.err = json.Unmarshal(got.body, &nr)
	}
	if got.err != nil || got.code != http.StatusOK || !nr.Converged {
		t.Fatalf("/negotiate on the evicted session = %d %s (%v), want a converged 200", got.code, got.body, got.err)
	}
	back := createSession(t, ts, funnel(8), "pitch=2&weight=40")
	if !back.Warm {
		t.Fatalf("re-created A = %+v, want a warm start from its journal", back)
	}
	var wr wiresResponse
	if code := getJSON(t, ts.URL+"/v1/sessions/"+sa.Hash+"/wires", &wr); code != http.StatusOK {
		t.Fatalf("wires of re-created A = %d", code)
	}
	want, _ := json.Marshal(nr.Wires)
	if have, _ := json.Marshal(wr.Wires); !bytes.Equal(have, want) {
		t.Fatalf("re-created A's wires differ from its negotiation's:\n got %s\nwant %s", have, want)
	}
}

// TestWritersWaitUnderTheirDeadline: beside a /negotiate parked mid-run,
// an /eco and a /negotiate with deadline_ms 50 answer 503 with
// Retry-After, and the session list answers.
func TestWritersWaitUnderTheirDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{SnapshotDir: t.TempDir(), MaxConcurrent: 4, Workers: 1})
	sr := createSession(t, ts, funnel(8), "pitch=2&weight=40")
	negotiateOK(t, ts, sr.Hash)
	parked, release, restore := parkRouteNet()
	defer restore()
	negotiated := make(chan int, 1)
	go func() {
		code, _, _, _ := do(context.Background(), "POST", ts.URL+"/v1/sessions/"+sr.Hash+"/negotiate", "{}")
		negotiated <- code
	}()
	<-parked

	ctx, cancel := context.WithTimeout(context.Background(), watchdog)
	for _, r := range []struct{ path, body string }{
		{"/eco", `{"ops": [{"op": "remove_net", "name": "n01"}], "deadline_ms": 50}`},
		{"/negotiate", `{"deadline_ms": 50}`},
	} {
		code, hdr, body, err := do(ctx, "POST", ts.URL+"/v1/sessions/"+sr.Hash+r.path, r.body)
		if err != nil || code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
			t.Errorf("%s with deadline_ms 50 beside a parked /negotiate = %d %s (Retry-After %q, %v), want 503 with Retry-After",
				r.path, code, body, hdr.Get("Retry-After"), err)
		}
	}
	if code, _, body, err := do(ctx, "GET", ts.URL+"/v1/sessions", ""); err != nil || code != http.StatusOK {
		t.Errorf("GET /v1/sessions beside a parked /negotiate = %d %s (%v), want 200", code, body, err)
	}
	cancel()
	close(release)
	if code := <-negotiated; code != http.StatusOK {
		t.Fatalf("/negotiate = %d after release, want 200", code)
	}
}

// TestCreateWaitCancelledIs503: a create that joins a cold build parked at
// its journal write answers 503 with Retry-After when the server's work
// context is cancelled under it, and so does a create that waits for an
// evicted engine of its layout to retire.
func TestCreateWaitCancelledIs503(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{SnapshotDir: dir, MaxConcurrent: 4, Workers: 1})
	admitted := make(chan struct{}, 2)
	s.hold = func(op string) {
		if op == "prepare" {
			admitted <- struct{}{}
		}
	}
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	defer faultinject.Enable(func(site faultinject.Site) faultinject.Fault {
		if site.Point == faultinject.SnapshotWrite {
			once.Do(func() {
				close(parked)
				<-release
			})
		}
		return faultinject.None
	})()
	body := layoutBody(t, "funnel", 8)
	built := make(chan int, 1)
	go func() {
		code, _, _, _ := do(context.Background(), "POST", ts.URL+"/v1/sessions?pitch=2", body)
		built <- code
	}()
	<-admitted
	<-parked
	type answer struct {
		code int
		hdr  http.Header
		body []byte
		err  error
	}
	joined := make(chan answer, 1)
	go func() {
		code, hdr, b, err := do(context.Background(), "POST", ts.URL+"/v1/sessions?pitch=2", body)
		joined <- answer{code, hdr, b, err}
	}()
	<-admitted
	s.workCancel()
	select {
	case got := <-joined:
		if got.err != nil || got.code != http.StatusServiceUnavailable || got.hdr.Get("Retry-After") == "" {
			t.Errorf("joined create after the work context was cancelled = %d %s (Retry-After %q, %v), want 503 with Retry-After",
				got.code, got.body, got.hdr.Get("Retry-After"), got.err)
		}
	case <-time.After(watchdog):
		t.Error("joined create still waiting after the work context was cancelled")
	}
	close(release)
	<-built

	// A create waiting for an evicted engine of its layout to retire.
	c := newSessionCache(1, dir, 1, nil, func(string, ...any) {})
	c.retiring[1] = make(chan struct{})
	done := make(chan struct{})
	close(done)
	if _, _, err := c.getOrCreate(done, funnel(8), 1, nil); !errors.Is(err, errWaitCancelled) {
		t.Errorf("create cancelled while its predecessor retires: err = %v, want %v", err, errWaitCancelled)
	}
}
