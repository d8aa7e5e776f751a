package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/faultinject"
	"repro/internal/gen"
)

// funnel is gen.Funnel, the standard congestion fixture, with its nets
// named n00, n01, …, the names the tests ask for.
func funnel(nNets int) *genroute.Layout {
	l := gen.Funnel(nNets)
	for i := range l.Nets {
		l.Nets[i].Name = fmt.Sprintf("n%02d", i)
	}
	return l
}

// newTestServer mounts a Server's handler on httptest with the real
// daemon's BaseContext wiring, so the drain's work-cancellation reaches
// request contexts exactly as in production.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = func(format string, args ...any) {} // quiet by default
	}
	s := New(cfg)
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.BaseContext = func(net.Listener) context.Context { return s.workCtx }
	ts.Start()
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON posts body (marshalled unless []byte) and decodes the response
// into out (when non-nil), returning the status code and headers.
func postJSON(t *testing.T, url string, body any, out any) (int, http.Header) {
	t.Helper()
	var buf bytes.Buffer
	switch b := body.(type) {
	case nil:
	case []byte:
		buf.Write(b)
	default:
		if err := json.NewEncoder(&buf).Encode(b); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding response: %v", url, err)
		}
	}
	return resp.StatusCode, resp.Header
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// createSession posts the layout and returns the session response. query
// is the option string, e.g. "pitch=2&weight=40".
func createSession(t *testing.T, ts *httptest.Server, l *genroute.Layout, query string) sessionResponse {
	t.Helper()
	var buf bytes.Buffer
	if err := genroute.WriteLayout(&buf, l); err != nil {
		t.Fatal(err)
	}
	var sr sessionResponse
	code, _ := postJSON(t, ts.URL+"/v1/sessions?"+query, buf.Bytes(), &sr)
	if code != http.StatusCreated && code != http.StatusOK {
		t.Fatalf("create session: status %d (%+v)", code, sr)
	}
	return sr
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	l := funnel(8)

	sr := createSession(t, ts, l, "pitch=2&weight=40")
	if !sr.Created || sr.Warm || sr.Nets != 8 {
		t.Fatalf("first create = %+v, want created cold session with 8 nets", sr)
	}
	again := createSession(t, ts, l, "pitch=2&weight=40")
	if again.Created || again.Hash != sr.Hash {
		t.Fatalf("second create = %+v, want resident session %s", again, sr.Hash)
	}

	var rr routeResponse
	code, _ := postJSON(t, ts.URL+"/v1/sessions/"+sr.Hash+"/route", routeRequest{Net: "n01"}, &rr)
	if code != http.StatusOK || !rr.Found || len(rr.Segments) == 0 || rr.Partial {
		t.Fatalf("route = %d %+v, want a found route with segments", code, rr)
	}
	code, _ = postJSON(t, ts.URL+"/v1/sessions/"+sr.Hash+"/route", routeRequest{Net: "nope"}, nil)
	if code != http.StatusNotFound {
		t.Fatalf("route of unknown net: status %d, want 404", code)
	}

	var nr negotiateResponse
	code, _ = postJSON(t, ts.URL+"/v1/sessions/"+sr.Hash+"/negotiate", negotiateRequest{}, &nr)
	if code != http.StatusOK || !nr.Converged || nr.Partial || len(nr.Passes) == 0 {
		t.Fatalf("negotiate = %d %+v, want a converged run", code, nr)
	}

	var ready readyzResponse
	if code := getJSON(t, ts.URL+"/readyz", &ready); code != http.StatusOK || ready.Status != "ready" {
		t.Fatalf("readyz = %d %+v", code, ready)
	}
	var list []sessionResponse
	if code := getJSON(t, ts.URL+"/v1/sessions", &list); code != http.StatusOK || len(list) != 1 || !list[0].Routed {
		t.Fatalf("session list = %d %+v", code, list)
	}
}

// TestSingleFlightPrepare: concurrent creates of one layout share one
// preparation — exactly one caller reports Created.
func TestSingleFlightPrepare(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var buf bytes.Buffer
	if err := genroute.WriteLayout(&buf, funnel(8)); err != nil {
		t.Fatal(err)
	}
	layoutJSON := append([]byte(nil), buf.Bytes()...)

	const N = 8
	results := make([]sessionResponse, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			postJSON(t, ts.URL+"/v1/sessions?pitch=2", append([]byte(nil), layoutJSON...), &results[i])
		}(i)
	}
	wg.Wait()
	created := 0
	for i := range results {
		if results[i].Hash != results[0].Hash {
			t.Fatalf("sessions diverged: %+v vs %+v", results[i], results[0])
		}
		if results[i].Created {
			created++
		}
	}
	if created != 1 {
		t.Fatalf("%d of %d concurrent creates prepared a session, want exactly 1 (single-flight)", created, N)
	}
}

// TestCorruptSnapshotFailOpen: a bit-flipped or truncated warm-start
// journal base is detected via the typed ErrSnapshot* errors, quarantined
// to <file>.bad, and the request succeeds via a cold build.
func TestCorruptSnapshotFailOpen(t *testing.T) {
	dir := t.TempDir()
	l := funnel(8)

	// A healthy server persists a journal base on session creation.
	_, ts := newTestServer(t, Config{SnapshotDir: dir, Workers: 1})
	sr := createSession(t, ts, l, "pitch=2")
	snap := filepath.Join(dir, sr.Hash+".jrnl")
	orig, err := os.ReadFile(snap)
	if err != nil {
		t.Fatalf("session creation persisted no snapshot: %v", err)
	}
	ts.Close()

	for name, corrupt := range map[string][]byte{
		"bitflip":  append(append([]byte(nil), orig[:len(orig)/2]...), append([]byte{orig[len(orig)/2] ^ 0x40}, orig[len(orig)/2+1:]...)...),
		"truncate": orig[:len(orig)/3],
	} {
		if err := os.WriteFile(snap, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, bad := range quarantined(t, snap) {
			os.Remove(bad)
		}
		_, ts2 := newTestServer(t, Config{SnapshotDir: dir, Workers: 1})
		got := createSession(t, ts2, l, "pitch=2")
		if got.Warm || !got.Created {
			t.Fatalf("%s: create over corrupt snapshot = %+v, want cold fail-open build", name, got)
		}
		if len(quarantined(t, snap)) != 1 {
			t.Fatalf("%s: corrupt snapshot not quarantined", name)
		}
		var rr routeResponse
		code, _ := postJSON(t, ts2.URL+"/v1/sessions/"+got.Hash+"/route", routeRequest{Net: "n01"}, &rr)
		if code != http.StatusOK || !rr.Found {
			t.Fatalf("%s: route after fail-open build = %d %+v", name, code, rr)
		}
		ts2.Close()
		// The cold build wrote a healthy journal base; reset for the next
		// variant.
		var rerr error
		orig, rerr = os.ReadFile(snap)
		if rerr != nil {
			t.Fatalf("%s: cold build did not re-persist: %v", name, rerr)
		}
	}
}

// TestPanicRecoveryKeepsSessionHealthy: a panic escaping the engine during
// a request returns 500 with the degraded marker, and the session serves
// the next request normally — failure isolated to the request.
func TestPanicRecoveryKeepsSessionHealthy(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	sr := createSession(t, ts, funnel(8), "pitch=2")

	restore := faultinject.Enable(func(site faultinject.Site) faultinject.Fault {
		if site.Point == faultinject.Search {
			return faultinject.Panic
		}
		return faultinject.None
	})
	defer restore()
	var er errorResponse
	code, _ := postJSON(t, ts.URL+"/v1/sessions/"+sr.Hash+"/route", routeRequest{Net: "n01"}, &er)
	if code != http.StatusInternalServerError || !er.Degraded || !strings.Contains(er.Error, "panic") {
		t.Fatalf("poisoned route = %d %+v, want a degraded 500", code, er)
	}
	restore()

	var rr routeResponse
	code, _ = postJSON(t, ts.URL+"/v1/sessions/"+sr.Hash+"/route", routeRequest{Net: "n01"}, &rr)
	if code != http.StatusOK || !rr.Found {
		t.Fatalf("route after recovered panic = %d %+v, want the session healthy", code, rr)
	}
}

// TestECOCommitErrorsClassifiedByType: a failed commit's status comes from
// its typed error, never from its text. A rejected edit is the client's
// 400 even when the net it names is called "panicked"; a journal that
// cannot fsync is the server's 500; a panic inside the commit is a
// degraded 500. The session keeps committing afterwards.
func TestECOCommitErrorsClassifiedByType(t *testing.T) {
	_, ts := newTestServer(t, Config{SnapshotDir: t.TempDir(), Workers: 1})
	sr := createSession(t, ts, funnel(8), "pitch=2")
	negotiateOK(t, ts, sr.Hash)
	commit := func(op ecoOp) (int, errorResponse) {
		t.Helper()
		var er errorResponse
		code, _ := postJSON(t, ts.URL+"/v1/sessions/"+sr.Hash+"/eco", ecoRequest{Ops: []ecoOp{op}}, &er)
		return code, er
	}
	faultAt := func(p faultinject.Point, f faultinject.Fault) (restore func()) {
		return faultinject.Enable(func(site faultinject.Site) faultinject.Fault {
			if site.Point == p {
				return f
			}
			return faultinject.None
		})
	}
	removeN07 := ecoOp{Op: "remove_net", Name: "n07"}

	t.Run("RejectedEditNamedPanicked", func(t *testing.T) {
		// The funnel is 200 high: y=500 puts both pins out of bounds.
		if code, er := commit(addNetOp(t, "panicked", 500)); code != http.StatusBadRequest || er.Degraded {
			t.Fatalf("out-of-bounds net named panicked = %d %+v, want a plain 400", code, er)
		}
	})
	t.Run("JournalSyncFailure", func(t *testing.T) {
		defer faultAt(faultinject.JournalSync, faultinject.Error)()
		if code, er := commit(removeN07); code != http.StatusInternalServerError || er.Degraded {
			t.Fatalf("commit with a failing journal fsync = %d %+v, want a plain 500", code, er)
		}
	})
	t.Run("CommitPanic", func(t *testing.T) {
		defer faultAt(faultinject.Commit, faultinject.Panic)()
		if code, er := commit(removeN07); code != http.StatusInternalServerError || !er.Degraded {
			t.Fatalf("commit that panicked = %d %+v, want a degraded 500", code, er)
		}
	})
	ecoPost(t, ts, sr.Hash, []ecoOp{removeN07})
}

// slowReroutes installs a hook that stalls every negotiator rip long
// enough to outlive a short request deadline — the deterministic way to
// expire a deadline mid-negotiation on a fixture this small.
func slowReroutes(d time.Duration) (restore func()) {
	return faultinject.Enable(func(site faultinject.Site) faultinject.Fault {
		if site.Point == faultinject.Reroute {
			time.Sleep(d)
		}
		return faultinject.None
	})
}

// TestNegotiateDeadlinePartial: an expired per-request deadline returns
// the well-formed best-pass partial marked "partial": true, and the
// session completes on a follow-up request.
func TestNegotiateDeadlinePartial(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	sr := createSession(t, ts, funnel(16), "pitch=2&weight=40")

	restore := slowReroutes(50 * time.Millisecond)
	var nr negotiateResponse
	code, _ := postJSON(t, ts.URL+"/v1/sessions/"+sr.Hash+"/negotiate", negotiateRequest{DeadlineMS: 5}, &nr)
	restore()
	if code != http.StatusOK || !nr.Partial {
		t.Fatalf("deadline-bound negotiate = %d %+v, want a 200 partial", code, nr)
	}
	code, _ = postJSON(t, ts.URL+"/v1/sessions/"+sr.Hash+"/negotiate", negotiateRequest{}, &nr)
	if code != http.StatusOK || nr.Partial || !nr.Converged {
		t.Fatalf("follow-up negotiate = %d %+v, want a converged run", code, nr)
	}
}

// TestNegotiatePartialWithFailedFoldFails: on a journaled session, an
// interrupted negotiation whose journal fold fails is an error, not a
// partial: the routes it installed would not survive a restart. Only the
// folds after the deadline fail: the checkpoint folds before it must land,
// or the run would abort at its first checkpoint instead of being
// interrupted.
func TestNegotiatePartialWithFailedFoldFails(t *testing.T) {
	_, ts := newTestServer(t, Config{SnapshotDir: t.TempDir(), Workers: 1})
	sr := createSession(t, ts, funnel(16), "pitch=2&weight=40")
	negotiateOK(t, ts, sr.Hash)
	ecoPost(t, ts, sr.Hash, []ecoOp{{Op: "remove_net", Name: "n07"}})

	const deadline = 5 * time.Millisecond
	expired := time.Now().Add(deadline) // no later than the server's deadline
	restore := faultinject.Enable(func(site faultinject.Site) faultinject.Fault {
		switch site.Point {
		case faultinject.Reroute:
			time.Sleep(50 * time.Millisecond)
		case faultinject.JournalCompact:
			if time.Now().After(expired) {
				return faultinject.Error
			}
		}
		return faultinject.None
	})
	var nr negotiateResponse
	code, _ := postJSON(t, ts.URL+"/v1/sessions/"+sr.Hash+"/negotiate", negotiateRequest{DeadlineMS: deadline.Milliseconds()}, &nr)
	restore()
	if code != http.StatusInternalServerError {
		t.Fatalf("interrupted negotiate with a failing fold = %d %+v, want 500", code, nr)
	}
}

// TestNegotiatePartialWithFailedCheckpointIsPartial: when only the
// checkpoint an interrupted pass delivers on its way out fails to fold, the
// run still installs its best pass and the fold after it lands, so the
// session's durable state did change: the request answers a 200 partial
// that reports the interrupted pass, not a 500.
func TestNegotiatePartialWithFailedCheckpointIsPartial(t *testing.T) {
	s, ts := newTestServer(t, Config{SnapshotDir: t.TempDir(), Workers: 1})
	sr := createSession(t, ts, funnel(16), "pitch=2&weight=40")

	var mu sync.Mutex
	interrupted, folds := false, 0
	restore := faultinject.Enable(func(site faultinject.Site) faultinject.Fault {
		mu.Lock()
		defer mu.Unlock()
		switch site.Point {
		case faultinject.Reroute:
			// The server's work context parents the request's, and
			// cancelling it cancels the request before this hook returns,
			// so the first rip-up is interrupted. (A deadline the hook
			// sleeps past is not enough: its timer fires on a goroutine of
			// its own, and the pass may finish first.)
			if !interrupted {
				s.workCancel()
				interrupted = true
			}
		case faultinject.JournalCompact:
			if interrupted {
				if folds++; folds == 1 {
					return faultinject.Error
				}
			}
		}
		return faultinject.None
	})
	var nr negotiateResponse
	code, _ := postJSON(t, ts.URL+"/v1/sessions/"+sr.Hash+"/negotiate", negotiateRequest{}, &nr)
	restore()
	if code != http.StatusOK || !nr.Partial || len(nr.Passes) < 2 {
		t.Fatalf("interrupted negotiate with a failing checkpoint = %d %+v, want a 200 partial reporting the interrupted pass", code, nr)
	}
	if folds != 2 {
		t.Fatalf("%d journal folds after the deadline, want the failed checkpoint and the fold after the flow", folds)
	}
}

// TestRouteDoesNotWaitForNegotiate: a /route answers inside its 50 ms
// deadline while a /negotiate on the same session is parked mid-run with
// the engine's writer token held: a read loads the installed session and
// takes nothing.
func TestRouteDoesNotWaitForNegotiate(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2, Workers: 1})
	sr := createSession(t, ts, funnel(8), "pitch=2&weight=40")

	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	restore := faultinject.Enable(func(site faultinject.Site) faultinject.Fault {
		// The negotiation's first pass routes through the worker pool,
		// which fires the RouteNet seam; a /route does not.
		if site.Point == faultinject.RouteNet {
			once.Do(func() {
				close(parked)
				<-release
			})
		}
		return faultinject.None
	})
	defer restore()
	negotiated := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sessions/"+sr.Hash+"/negotiate", "application/json", strings.NewReader("{}"))
		if err != nil {
			negotiated <- 0
			return
		}
		resp.Body.Close()
		negotiated <- resp.StatusCode
	}()
	<-parked

	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post(ts.URL+"/v1/sessions/"+sr.Hash+"/route", "application/json",
		strings.NewReader(`{"net": "n01", "deadline_ms": 50}`))
	close(release)
	if err != nil {
		t.Fatalf("/route beside a parked /negotiate: %v", err)
	}
	defer resp.Body.Close()
	var rr routeResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !rr.Found || rr.Partial {
		t.Errorf("/route beside a parked /negotiate = %d %+v, want a 200 route found inside its deadline", resp.StatusCode, rr)
	}
	if code := <-negotiated; code != http.StatusOK {
		t.Fatalf("/negotiate = %d after release, want 200", code)
	}
}

// TestLRUEvictionAndWarmReadmission: past the LRU bound the oldest session
// drops to 404, and re-POSTing its layout warm-starts from its journal.
func TestLRUEvictionAndWarmReadmission(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{SnapshotDir: dir, MaxSessions: 1, Workers: 1})
	a, b := funnel(8), funnel(6)
	b.Name = "funnel-b"

	sa := createSession(t, ts, a, "pitch=2")
	sb := createSession(t, ts, b, "pitch=2")
	if sa.Hash == sb.Hash {
		t.Fatal("distinct layouts fingerprinted identically")
	}
	code, _ := postJSON(t, ts.URL+"/v1/sessions/"+sa.Hash+"/route", routeRequest{Net: "n01"}, nil)
	if code != http.StatusNotFound {
		t.Fatalf("evicted session answered %d, want 404", code)
	}
	back := createSession(t, ts, a, "pitch=2")
	if !back.Created || !back.Warm {
		t.Fatalf("re-admission = %+v, want a warm re-prepare from the snapshot", back)
	}
	mustRouteOK(t, ts, back.Hash, "n01")
}

// quarantined lists the timestamped .bad files quarantine left for path.
func quarantined(t *testing.T, path string) []string {
	t.Helper()
	bad, err := filepath.Glob(path + ".*.bad")
	if err != nil {
		t.Fatal(err)
	}
	return bad
}

func mustRouteOK(t *testing.T, ts *httptest.Server, hash, net string) {
	t.Helper()
	var rr routeResponse
	code, _ := postJSON(t, ts.URL+"/v1/sessions/"+hash+"/route", routeRequest{Net: net}, &rr)
	if code != http.StatusOK || !rr.Found {
		t.Fatalf("route %s on %s = %d %+v", net, hash, code, rr)
	}
}

// TestRequestDeadlineCappedByServer: a client deadline beyond MaxDeadline
// is capped (the negotiation is cut off near the cap, not the request's).
func TestRequestDeadlineCappedByServer(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxDeadline: 5 * time.Millisecond})
	sr := createSession(t, ts, funnel(16), "pitch=2&weight=40")
	restore := slowReroutes(50 * time.Millisecond)
	defer restore()
	var nr negotiateResponse
	start := time.Now()
	code, _ := postJSON(t, ts.URL+"/v1/sessions/"+sr.Hash+"/negotiate", negotiateRequest{DeadlineMS: 3_600_000}, &nr)
	if code != http.StatusOK || !nr.Partial {
		t.Fatalf("capped negotiate = %d %+v, want partial", code, nr)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("server cap not applied: request ran %s", elapsed)
	}
}
